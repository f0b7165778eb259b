// Package xrand provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator.
//
// The simulator must be reproducible: the paper averages three runs of every
// benchmark, and our tests assert calibrated aggregate values, so all
// randomness flows from explicit seeds rather than from global state.
// The package implements SplitMix64 (for seeding and cheap splitting) and
// xoshiro256** (for the main streams), both public-domain algorithms by
// Blackman and Vigna.
package xrand

import (
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"time"
	"weak"
)

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used to derive well-distributed seeds from arbitrary user seeds.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a deterministic xoshiro256** generator. The zero value is not
// valid; construct with New or Split.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64, as recommended by
// the xoshiro authors. Distinct seeds give statistically independent streams.
func New(seed uint64) *Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro256** must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

// Split derives an independent child generator from r and a label.
// The parent state is unchanged, so components can derive private streams
// without perturbing each other (e.g. per-benchmark, per-run, per-model).
func (r *Rand) Split(label uint64) *Rand {
	mix := r.s[0] ^ rotl(r.s[2], 17) ^ (label * 0xd1342543de82ef95)
	return New(mix)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	// 53 high-quality bits into the mantissa.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Bool returns true with probability p (clamped to [0,1]). It is
// NewThreshold(p).Draw(r); hot loops drawing against a fixed p hold the
// Threshold instead.
func (r *Rand) Bool(p float64) bool { return NewThreshold(p).Draw(r) }

// Threshold is a Bernoulli(p) draw with p folded into an integer bound.
// Float64() is exactly m*2^-53 with m = Uint64()>>11, and p*2^53 scales
// exactly, so for 0 < p < 1 the test Float64() < p holds exactly when
// m < ceil(p*2^53) <= 2^53. Bounds above 2^53 mark the p that consume no
// draw: p <= 0 is never and p >= 1 always. A NaN p fails both of Bool's
// comparisons and then Float64() < NaN, so it draws and never hits: bound 0.
type Threshold struct{ lim uint64 }

const (
	thresholdNever  = 1<<53 + 1
	thresholdAlways = 1<<53 + 2
)

// NewThreshold precomputes the draw Bool(p) makes.
func NewThreshold(p float64) Threshold {
	switch {
	case p <= 0:
		return Threshold{thresholdNever}
	case p >= 1:
		return Threshold{thresholdAlways}
	case p > 0:
		return Threshold{uint64(math.Ceil(p * (1 << 53)))}
	}
	return Threshold{0} // NaN
}

// Draw returns true with the threshold's probability, consuming r
// exactly as Bool(p) would.
func (t Threshold) Draw(r *Rand) bool {
	if t.lim > 1<<53 {
		return t.lim == thresholdAlways
	}
	return r.Uint64()>>11 < t.lim
}

// NormFloat64 returns a normally distributed value with mean 0 and
// standard deviation 1, using the Marsaglia polar method.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// SkipNorm advances the stream past n NormFloat64 draws without computing
// the normal deviates. The Marsaglia polar method consumes a variable number
// of uniforms per deviate (its rejection loop), so skipping must replay the
// accept/reject decisions exactly; only the Sqrt/Log finishing math is
// elided. After SkipNorm(n) the generator state is bit-identical to the
// state after n NormFloat64 calls — the property the simulator's phase
// fast-forwarding relies on to keep later phases on the exact noise stream.
func (r *Rand) SkipNorm(n int) {
	for i := 0; i < n; i++ {
		for {
			u := 2*r.Float64() - 1
			v := 2*r.Float64() - 1
			s := u*u + v*v
			if s >= 1 || s == 0 {
				continue
			}
			break
		}
	}
}

// Jitter returns base scaled by a factor drawn from N(1, rel) and clamped to
// stay positive; it models run-to-run measurement noise.
func (r *Rand) Jitter(base, rel float64) float64 {
	f := 1 + rel*r.NormFloat64()
	if f < 0.05 {
		f = 0.05
	}
	return base * f
}

// Backoff returns the capped-exponential retry delay for a 0-based
// attempt: base doubled attempt times and capped at maxDelay, then scaled
// by a jitter factor in [0.5, 1.5) drawn from r. Each caller derives r
// from its own split chain, so concurrent retriers decorrelate while every
// schedule replays exactly.
func Backoff(base, maxDelay time.Duration, attempt int, r *Rand) time.Duration {
	d := base
	for i := 0; i < attempt && d < maxDelay; i++ {
		d *= 2
	}
	if d > maxDelay {
		d = maxDelay
	}
	return time.Duration(float64(d) * (0.5 + r.Float64()))
}

// HashString folds a name (a unit, a job ID) into a Split label: the
// 64-bit FNV-1a hash of its bytes.
func HashString(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// Zipf returns a value in [0, n) following an approximate Zipf distribution
// with exponent s > 0. Small ranks are most likely; it is used to model
// skewed working-set reuse. Zipf is the table-free reference: it evaluates
// the exact inverse-CDF expression on every call. Hot paths drawing many
// values for the same (n, s) should hold a ZipfGen instead, which returns
// the identical value sequence from the identical generator state.
func (r *Rand) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	e := newZipfExact(n, s)
	return e.rank(r.Uint64() >> 11)
}

// zipfExact holds the rank-independent constants of the bounded-Pareto
// inverse-CDF Zipf approximation for a fixed (n, s), and evaluates the one
// exact rank expression.
type zipfExact struct {
	n     int
	s     float64
	logN1 float64 // log(n+1), for the s == 1 branch
	c1    float64 // pow(n+1, 1-s) - 1
	inv   float64 // 1 / (1-s)
}

func newZipfExact(n int, s float64) zipfExact {
	e := zipfExact{n: n, s: s}
	if n <= 1 {
		return e
	}
	if s == 1 {
		e.logN1 = math.Log(float64(n) + 1)
		return e
	}
	one := 1 - s
	e.c1 = math.Pow(float64(n)+1, one) - 1
	e.inv = 1 / one
	return e
}

// rank is the exact expression: the continuous bounded-Pareto inverse CDF
// at u = m/2^53, truncated and clamped to [0, n). m is the 53-bit integer
// Float64 would have divided by 2^53, so u is bit-identical to Float64's.
// It requires n > 1.
func (e *zipfExact) rank(m uint64) int {
	u := float64(m) / (1 << 53)
	if e.s == 1 {
		return int(math.Expm1(u*e.logN1)) % e.n
	}
	x := math.Pow(u*e.c1+1, e.inv) - 1
	return e.clamp(int(x))
}

func (e *zipfExact) clamp(k int) int {
	if k < 0 {
		return 0
	}
	if k >= e.n {
		return e.n - 1
	}
	return k
}

// Guide-table layout: the top zipfBucketBits of the 53-bit draw m pick a
// bucket, the low zipfTailBits are the exact offset into it.
const (
	zipfBucketBits = 12
	zipfBuckets    = 1 << zipfBucketBits
	zipfTailBits   = 53 - zipfBucketBits
	zipfTailMask   = 1<<zipfTailBits - 1

	// zipfMaxTerms caps the series length; zipfMaxT caps the series
	// variable |t| a bucket may span. Wider buckets stay exact.
	zipfMaxTerms = 16
	zipfMaxT     = 1.0 / 16

	// zipfMaxTrunc bounds the relative truncation error of the series. It
	// enters the guard band directly, so it only needs to sit well inside
	// the rounding part of the band.
	zipfMaxTrunc = 0x1p-40

	// zipfMargin multiplies the error budget below into the guard band.
	// It covers the second-order terms the budget drops and the claimed
	// (not proven) ulp bounds of math.Exp and math.Log inside math.Pow.
	zipfMargin = 1024

	// zipfMaxGuard is the widest relative guard band worth a table: a
	// generator whose budget exceeds it stays exact-only.
	zipfMaxGuard = 0x1p-20
)

// zipfBucket anchors the series for one bucket. The exact expression at
// u = u0 + d (u0 the bucket's left edge, d the offset) factors as
//
//	(1 + c1*u)^inv = A0^inv * (1 + t)^inv,  A0 = 1 + c1*u0,  t = d*c1/A0.
type zipfBucket struct {
	g0 float64 // Pow(A0, inv); 0 when the bucket is exact-only
	r  float64 // c1/A0, so t = d*r; 0 when the bucket is exact-only
}

const (
	// zipfNoRank marks, in a table's rank array, a bucket the series
	// decides draw by draw.
	zipfNoRank = -1

	// zipfMinSingleRank is the fewest single-rank buckets a table needs to
	// keep its rank array. A draw branches on the array's entry, and when
	// both outcomes are common that branch is mispredicted often enough
	// to cost more than the series it skips: in isolated draws the array
	// cost time at 54% single-rank buckets, broke even near 70% and saved
	// a third at 91% (DESIGN §11).
	zipfMinSingleRank = zipfBuckets * 2 / 3
)

// zipfTable is the guide table of one (n, s): the series length and
// coefficients, the guard band, the bucket anchors and the single-rank
// buckets' ranks. It is immutable once built, and every ZipfGen targeting
// (n, s) shares the one canonical table (see sharedZipfTable).
type zipfTable struct {
	deg        int                       // series degree, K-1
	coef       [zipfMaxTerms + 1]float64 // C(inv, k)
	rho0, rho1 float64                   // h-scaled band: g = (rho0 + rho1*|r|)*g0
	// A single-rank bucket is one whose every offset truncates to the
	// same rank; a draw reads that rank here, before the bucket, and
	// zipfNoRank marks every other bucket. nil when fewer than
	// zipfMinSingleRank buckets are single-rank: those tables' draws all
	// take the series.
	rank *[zipfBuckets]int32
	bk   [zipfBuckets]zipfBucket
}

// ZipfGen draws ranks with exactly the values and generator consumption of
// Rand.Zipf(n, s), without a math.Pow per draw. It consumes one Uint64 per
// draw, the same one Float64 would, so RNG striding and checkpoint
// resumption see no difference.
//
// Its guide table tabulates, for each of 4096 buckets of u, the anchor g0
// and slope r, and picks a series length K. A draw evaluates
//
//	x = g0 * sum_{k<K} C(inv,k) t^k - 1
//
// by Horner's rule and returns int(x) clamped, unless an integer lies
// within the guard band g of x, where the exact expression could round to
// the other side. Those draws (and draws into exact-only buckets, and
// every draw of an exact-only generator) fall through to the exact
// expression itself, so every rank equals the one Rand.Zipf returns.
//
// Error budget for |x - X|, X the exact expression's value, relative to
// y = X+1 and in units of eps = 2^-53, for a bucket whose series variable
// satisfies |t| <= T:
//
//   - truncation: the tail sum_{k>=K} |C(inv,k)| T^k is at most
//     |C(inv,K)| T^K / (1-q), q = T*max(1, (K+|inv|)/(K+1)), because
//     |C(inv,k+1)/C(inv,k)| = |inv-k|/(k+1) never exceeds that ratio for
//     k >= K. Divided by the smallest series value (1-T)^|inv|, K is the
//     least length that makes this at most zipfMaxTrunc (2^13 eps); the
//     band adds twice the bound outside the margin.
//   - Horner rounding and coefficients: 2(K-1) roundings in the sum and
//     3k in coefficient k, weighted by sum |C(inv,k)| T^k / (1-T)^|inv|
//     <= (1-T)^(-2|inv|) = h^2: 5(K-1)h^2.
//   - slope and t: r and t = d*r round once each; through the series that
//     is 2|inv|T/(1-T).
//   - the final product g0*P and the "- 1" on both paths: 3.
//   - math.Pow, on the anchor and on the reference: its repeated squaring
//     loses about one ulp per unit of |inv|, Exp(yf*Log(x)) about
//     |ln x| + 2, the reciprocal and squaring steps 2log2(|inv|+2) + 6;
//     with |ln A| <= |ln(1+c1)| that is 2(|inv| + |ln(1+c1)| +
//     2log2(|inv|+2) + 8).
//   - fl(u*c1 + 1), on the anchor and on the reference: the rounded
//     argument is off by (1 + |c1 u|/A) eps, and raising it to inv
//     amplifies that |inv|-fold; inside a bucket |c1 u|/A <= |r|/(1-T),
//     so 2|inv|(1 + |r|/(1-T)).
//
// The relative band, rho0 + rho1*|r|, is twice the truncation bound plus
// zipfMargin times the other terms. Since y <= h*g0 in the bucket, the
// absolute band is g = (rho0 + rho1*|r|)*h*g0, which a draw computes
// alongside the series rather than after it. There is no table when
// s == 1, when n is outside [2, 2^40], when no series length meets the
// truncation bound, or when the band would exceed zipfMaxGuard (|inv|
// huge: s very close to 1); then every draw is exact. A bucket is
// exact-only when its |t| or its band is too wide.
//
// Single-rank buckets. The exact expression's real value X(u) is monotone
// in u, and the series and the reference each lie within g of it. So with
// x1 and x2 the series at a bucket's first and last offsets, every
// reference value in the bucket lies in [min(x1,x2) - 2g, max(x1,x2) +
// 2g]; when both ends of that interval truncate to the same integer, that
// integer, clamped, is the rank of every draw in the bucket, and the
// table records it (when enough buckets are single-rank; see
// zipfMinSingleRank).
//
// The table of an (n, s) is shared: every generator targeting (n, s)
// holds the same immutable table, built once and dropped when the last
// holder lets go. A ZipfGen is a small value; copies draw independently
// and may be used from different goroutines, each with its own Rand.
type ZipfGen struct {
	zipfExact
	tab *zipfTable // nil: every draw is exact
}

// NewZipfGen returns a generator for (n, s), sharing the (n, s) table any
// live generator holds and building it otherwise.
func NewZipfGen(n int, s float64) ZipfGen {
	var z ZipfGen
	z.Reset(n, s)
	return z
}

// Reset re-targets z at (n, s): afterwards z draws exactly as
// NewZipfGen(n, s) would. An unchanged (n, s) keeps z as it is; otherwise
// z takes the shared table of (n, s), so re-targeting to parameters some
// live generator holds allocates and tabulates nothing.
func (z *ZipfGen) Reset(n int, s float64) {
	if z.tab != nil && z.n == n && z.s == s {
		return
	}
	z.zipfExact = newZipfExact(n, s)
	z.tab = sharedZipfTable(&z.zipfExact)
}

// zipfTables maps each (n, s) to its canonical table, weakly: a table
// lives exactly as long as some ZipfGen holds it, and its cleanup then
// deletes the entry. Concurrent runs targeting the same (n, s) share one
// table; nothing keeps a table that no generator holds.
var zipfTables = struct {
	sync.Mutex
	m map[zipfKey]weak.Pointer[zipfTable]
}{m: make(map[zipfKey]weak.Pointer[zipfTable])}

type zipfKey struct {
	n int
	s uint64 // math.Float64bits(s)
}

// sharedZipfTable returns the canonical table of e's (n, s), building and
// registering it when no live generator holds one; nil when (n, s) gets
// no table.
func sharedZipfTable(e *zipfExact) *zipfTable {
	if !e.tabulable() {
		return nil
	}
	key := zipfKey{e.n, math.Float64bits(e.s)}
	zipfTables.Lock()
	defer zipfTables.Unlock()
	if t := zipfTables.m[key].Value(); t != nil {
		return t
	}
	t := newZipfTable(e)
	if t != nil {
		zipfTables.m[key] = weak.Make(t)
		runtime.AddCleanup(t, dropZipfTable, key)
	}
	return t
}

// dropZipfTable deletes key's entry once its table is gone. A table built
// for key since then is alive and keeps its entry.
func dropZipfTable(key zipfKey) {
	zipfTables.Lock()
	if zipfTables.m[key].Value() == nil {
		delete(zipfTables.m, key)
	}
	zipfTables.Unlock()
}

// tabulable reports whether (n, s) may have a table at all: finite
// constants, s != 1 and n in [2, 2^40].
func (e *zipfExact) tabulable() bool {
	return e.n >= 2 && int64(e.n) <= 1<<40 && e.s != 1 && isFinite(e.c1) && isFinite(e.inv) && e.c1 != 0
}

// newZipfTable builds the guide table for e, or returns nil when no table
// meets the error budget.
func newZipfTable(e *zipfExact) *zipfTable {
	const eps = 0x1p-53
	const dmax = float64(zipfTailMask) * eps // largest offset d
	ainv := math.Abs(e.inv)

	t := new(zipfTable)
	T := 0.0 // widest |t| among the buckets the series may cover
	for b := range t.bk {
		a0 := float64(b)/zipfBuckets*e.c1 + 1
		bk := zipfBucket{g0: math.Pow(a0, e.inv), r: e.c1 / a0}
		if tb := math.Abs(bk.r) * dmax; tb <= zipfMaxT && tb > T && bk.g0 > 0 && isFinite(bk.g0) {
			T = tb
		}
		t.bk[b] = bk
	}

	t.coef[0] = 1
	for k := 1; k <= zipfMaxTerms; k++ {
		t.coef[k] = t.coef[k-1] * (e.inv - float64(k-1)) / float64(k)
	}
	// Narrow T, leaving the widest buckets exact-only, until a series
	// length meets the truncation bound (or the table is too narrow to
	// be worth keeping).
	K, trunc := zipfTerms(&t.coef, ainv, T)
	for K == 0 && T >= 0x1p-24 {
		T /= 2
		K, trunc = zipfTerms(&t.coef, ainv, T)
	}
	if K == 0 {
		return nil
	}
	t.deg = K - 1

	h := math.Pow(1-T, -ainv) // y <= h*g0
	rho0 := 2*trunc + zipfMargin*eps*(5*float64(t.deg)*h*h+2*ainv*T/(1-T)+3+
		2*(ainv+math.Abs(math.Log1p(e.c1))+2*math.Log2(ainv+2)+8)+2*ainv)
	rho1 := zipfMargin * eps * 2 * ainv / (1 - T)
	if !(rho0 <= zipfMaxGuard) {
		return nil
	}
	t.rho0, t.rho1 = h*rho0, h*rho1
	for b := range t.bk {
		bk := &t.bk[b]
		ar := math.Abs(bk.r)
		if !(ar*dmax <= T && bk.g0 > 0 && isFinite(bk.g0) && rho0+rho1*ar <= zipfMaxGuard) {
			*bk = zipfBucket{} // x = -1 with a zero band: never decided
		}
	}
	t.markSingleRank(e)
	return t
}

// markSingleRank fills the rank array: each decided bucket whose series
// ends, widened by twice the band, truncate to one integer is single-rank
// (see ZipfGen). A rank past MaxInt32 stays unmarked. The table keeps the
// array only when at least zipfMinSingleRank buckets are marked.
func (t *zipfTable) markSingleRank(e *zipfExact) {
	var rank [zipfBuckets]int32
	marked := 0
	for b := range t.bk {
		rank[b] = zipfNoRank
		if bk := &t.bk[b]; bk.g0 > 0 {
			x1, g := t.series(bk, 0)
			x2, _ := t.series(bk, zipfTailMask)
			lo, hi := min(x1, x2)-2*g, max(x1, x2)+2*g
			if j := int(lo); lo > -1 && j == int(hi) {
				if k := e.clamp(j); k <= math.MaxInt32 {
					rank[b] = int32(k)
					marked++
				}
			}
		}
	}
	if marked >= zipfMinSingleRank {
		t.rank = &rank
	}
}

// zipfTerms returns the least series length K in [1, zipfMaxTerms] whose
// truncation error for |t| <= T, relative to the smallest series value
// (1-T)^|inv|, is at most zipfMaxTrunc, and that relative error; K is 0
// when no length is short enough.
func zipfTerms(coef *[zipfMaxTerms + 1]float64, ainv, T float64) (K int, trunc float64) {
	pmin := math.Pow(1-T, ainv)
	for K = 1; K <= zipfMaxTerms; K++ {
		q := T * math.Max(1, (float64(K)+ainv)/float64(K+1))
		if q >= 1 {
			continue
		}
		trunc = math.Abs(coef[K]) * math.Pow(T, float64(K)) / (1 - q) / pmin
		if trunc <= zipfMaxTrunc {
			return K, trunc
		}
	}
	return 0, 0
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Draw returns the next Zipf-distributed rank in [0, n), consuming r
// exactly as Rand.Zipf(n, s) would.
func (z *ZipfGen) Draw(r *Rand) int {
	if z.n <= 1 {
		return 0
	}
	k, _ := z.draw(r.Uint64() >> 11)
	return k
}

// draw returns the rank for the 53-bit draw m, and whether the table
// decided it; otherwise the generator or bucket is exact-only, or x lay
// inside the guard band, and the exact expression did.
func (z *ZipfGen) draw(m uint64) (k int, table bool) {
	t := z.tab
	if t == nil {
		return z.rank(m), false
	}
	i := m >> zipfTailBits & (zipfBuckets - 1)
	if t.rank != nil {
		if k := t.rank[i]; k != zipfNoRank {
			return int(k), true
		}
	}
	x, g := t.series(&t.bk[i], m&zipfTailMask)
	// The exact value lies in [lo, hi], and int truncates monotonically,
	// so one shared truncation is the exact rank.
	lo, hi := x-g, x+g
	if k = int(lo); lo > -1 && k == int(hi) {
		return z.clamp(k), true
	}
	return z.rank(m), false
}

// series evaluates bucket b's series at offset d (the draw's low
// zipfTailBits): x and its absolute guard band g.
func (t *zipfTable) series(b *zipfBucket, d uint64) (x, g float64) {
	tt := float64(d) * 0x1p-53 * b.r
	p := t.coef[t.deg]
	for i := t.deg - 1; i >= 0; i-- {
		p = p*tt + t.coef[i]
	}
	return b.g0*p - 1, (t.rho0 + t.rho1*math.Abs(b.r)) * b.g0
}
