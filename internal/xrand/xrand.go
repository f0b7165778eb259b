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
	"time"
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

// Bool returns true with probability p (clamped to [0,1]).
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
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
// skewed working-set reuse. Hot paths drawing many values for the same
// (n, s) should hold a ZipfGen instead, which produces the identical value
// sequence without recomputing the rank-independent constants per draw.
func (r *Rand) Zipf(n int, s float64) int {
	z := NewZipfGen(n, s)
	return z.Draw(r)
}

// ZipfGen memoizes the rank-independent constants of the bounded-Pareto
// inverse-CDF Zipf approximation for a fixed (n, s). Draw consumes exactly
// the same generator state and computes the same float expressions as
// Rand.Zipf, so replacing Zipf calls with a ZipfGen is bit-identical — it
// only eliminates one of the two math.Pow evaluations per draw, which
// dominates the simulator's cache-stream sampling cost.
type ZipfGen struct {
	n     int
	s     float64
	logN1 float64 // log(n+1), for the s == 1 branch
	c1    float64 // pow(n+1, 1-s) - 1
	inv   float64 // 1 / (1-s)
}

// NewZipfGen precomputes the draw constants for (n, s).
func NewZipfGen(n int, s float64) ZipfGen {
	z := ZipfGen{n: n, s: s}
	if n <= 1 {
		return z
	}
	if s == 1 {
		z.logN1 = math.Log(float64(n) + 1)
		return z
	}
	one := 1 - s
	z.c1 = math.Pow(float64(n)+1, one) - 1
	z.inv = 1 / one
	return z
}

// Draw returns the next Zipf-distributed rank in [0, n), consuming r
// exactly as Rand.Zipf(n, s) would.
func (z *ZipfGen) Draw(r *Rand) int {
	if z.n <= 1 {
		return 0
	}
	// Inverse-CDF approximation via the continuous bounded Pareto.
	u := r.Float64()
	if z.s == 1 {
		return int(math.Expm1(u*z.logN1)) % z.n
	}
	x := math.Pow(u*z.c1+1, z.inv) - 1
	k := int(x)
	if k < 0 {
		k = 0
	}
	if k >= z.n {
		k = z.n - 1
	}
	return k
}
