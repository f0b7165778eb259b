package cluster

import (
	"fmt"
	"math"
	"slices"

	"mobilebench/internal/xrand"
)

// PAM is Partitioning Around Medoids (Kaufman & Rousseeuw): a k-medoids
// method with a BUILD phase that greedily selects initial medoids and a
// SWAP phase that exhaustively improves them. Because BUILD+SWAP is a
// greedy hill climb it can stall in local minima; additional seeded random
// restarts are run and the lowest-cost result kept. Unlike K-means, PAM
// anchors clusters on actual observations, making it robust to outliers.
type PAM struct{}

// PAM search constants.
const (
	// pamMaxSwaps bounds SWAP iterations per start.
	pamMaxSwaps = 200
	// pamRestarts is how many random initializations are tried in
	// addition to the deterministic BUILD start.
	pamRestarts = 8
	// pamSeed drives the deterministic random restarts.
	pamSeed = 1
)

// NewPAM returns a PAM.
func NewPAM() *PAM { return &PAM{} }

// Name implements Algorithm.
func (p *PAM) Name() string { return "pam" }

// Cluster implements Algorithm.
func (p *PAM) Cluster(rows [][]float64, k int) (Assignment, error) {
	if err := validate(rows, k); err != nil {
		return nil, err
	}
	return p.cluster(NewDistMatrix(rows), k)
}

// ClusterDist implements DistAlgorithm: PAM works entirely on pairwise
// distances, so a precomputed matrix removes the whole O(n²·d) setup cost
// of each of the sweep's re-clusterings.
func (p *PAM) ClusterDist(rows [][]float64, dm *DistMatrix, k int) (Assignment, error) {
	if err := validate(rows, k); err != nil {
		return nil, err
	}
	return p.cluster(dm, k)
}

func (p *PAM) cluster(d *DistMatrix, k int) (Assignment, error) {
	n := d.N()
	// Finite features can still lie far enough apart that their distance
	// overflows to +Inf, and then no candidate medoid lowers the cost.
	// A finite distance is at most √MaxFloat64, so every cost sum over a
	// finite matrix stays finite.
	for i, v := range d.d {
		if math.IsInf(v, 0) {
			return nil, fmt.Errorf("cluster: distance between rows %d and %d overflows, want a finite value", i/n, i%n)
		}
	}
	s := newPAMScratch(n)

	best := swapFrom(d, pamBuild(d, k, s), s)
	bestCost := pamCost(d, best)
	for r := 0; r < pamRestarts; r++ {
		rng := xrand.New(pamSeed).Split(uint64(r) + 1)
		m := swapFrom(d, randomMedoids(s.perm, k, rng), s)
		if c := pamCost(d, m); c < bestCost-1e-12 {
			best, bestCost = append(best[:0], m...), c
		}
	}
	return assignToMedoids(d, best).Canonical(), nil
}

// assignToMedoids labels each observation with the index of its nearest
// medoid (ties to the lowest index). A medoid takes its own slot, so
// duplicate rows chosen as distinct medoids still give len(medoids)
// clusters.
func assignToMedoids(d *DistMatrix, medoids []int) Assignment {
	n := d.N()
	assign := make(Assignment, n)
	for i := 0; i < n; i++ {
		if c := slices.Index(medoids, i); c >= 0 {
			assign[i] = c
			continue
		}
		bc, bd := 0, math.Inf(1)
		for c, m := range medoids {
			if d.At(i, m) < bd {
				bc, bd = c, d.At(i, m)
			}
		}
		assign[i] = bc
	}
	return assign
}

// pamScratch caches, for every observation, its nearest medoid and its
// distances to the nearest (d1) and second-nearest (d2) medoids. One
// cluster call allocates it once and reuses it across the BUILD start and
// every restart.
//
// The cache makes a candidate's cost O(n) instead of pamCost's O(n·k)
// while keeping it bit-identical to pamCost. For each observation i,
// pamCost takes the minimum of the same float64 values with the same
// NaN-skipping strict < scan; which of several equal values it keeps
// cannot change the minimum's value. Removing medoid mi leaves d2[i] as
// the minimum when mi was i's nearest and d1[i] otherwise; adding o
// contributes d(i, o). The terms are then summed in the same i order, so
// every candidate's cost — and with it the 1e-12 tie rule and the medoid
// sequence — is exactly what recomputing pamCost would give.
type pamScratch struct {
	nearest []int
	d1, d2  []float64
	// rest[i] is i's distance to the nearest medoid other than the one
	// being swapped out.
	rest []float64
	// perm holds each random restart's permutation.
	perm []int
	// medoid marks the current medoids.
	medoid []bool
	// shared and corr hold one SWAP round's screen: shared[o] is
	// Σᵢ min(d(o,i), d1[i]) and corr[mi·n+o] is Σ over the i nearest to
	// medoid mi of min(d(o,i), d2[i]) − min(d(o,i), d1[i]). corr grows to
	// k·n on first use.
	shared, corr []float64
}

func newPAMScratch(n int) *pamScratch {
	idx := make([]int, 2*n)
	d := make([]float64, 4*n)
	return &pamScratch{
		nearest: idx[:n], perm: idx[n:], medoid: make([]bool, n),
		d1: d[:n], d2: d[n : 2*n], rest: d[2*n : 3*n], shared: d[3*n:],
	}
}

// cache fills the scratch for medoids. d2 is the second minimum of the
// multiset of distances, so a tie at the nearest distance gives d2 == d1.
func (s *pamScratch) cache(d *DistMatrix, medoids []int) {
	for i := range s.nearest {
		s.scan(d.row(i), medoids, i)
	}
}

// scan fills observation i's entries from its distances row: the scan takes
// a distance only when it is strictly below d1 or d2, so NaN and +Inf are
// never taken, nearest is the lowest slot at the minimum (−1 when no
// distance is taken), d1 is the minimum and d2 the second-smallest value of
// the multiset of taken distances (+Inf when there are too few).
func (s *pamScratch) scan(row []float64, medoids []int, i int) {
	near, d1, d2 := -1, math.Inf(1), math.Inf(1)
	for mi, m := range medoids {
		v := row[m]
		if v < d1 {
			near, d1, d2 = mi, v, d1
		} else if v < d2 {
			d2 = v
		}
	}
	s.nearest[i], s.d1[i], s.d2[i] = near, d1, d2
}

// update brings the cache from the medoids before a swap to medoids, in
// which slot holds a new medoid in place of old, without a full cache pass:
// O(n) work plus O(k) per rescanned observation instead of O(n·k).
//
// The entries are those cache would give, in bits. As scan's comment says,
// they are a function of the multiset M of taken distances, except that
// nearest is the lowest slot at the minimum. The swap takes v_old =
// d(i, old) out of slot and puts v = d(i, medoids[slot]) in. Equal values
// that are not NaN have equal bits, since a distance is never −0 (a square
// root of a sum that starts at +0). The cases, in the order update tests
// them:
//
//   - slot was the nearest and v < d2: the rest of M is at least d2 > v,
//     so v is the only minimum. slot stays the nearest, v becomes d1, and
//     d2, the rest's minimum, stays.
//   - slot was the nearest, or v_old ≤ d2 (or NaN) and v > d2 (or NaN):
//     the observation is rescanned.
//   - Otherwise slot was not the nearest, and removing v_old leaves d1 and
//     nearest as they were and d2 at some d2* ≥ d2. If v_old > d2 or is
//     NaN or +Inf, it was not taken or lay above M's two smallest values,
//     so d2* = d2. Else v_old ≤ d2 is taken and, as a value of M other
//     than the nearest's, at least d2, so v_old = d2 and d2* ≥ d2 ≥ v.
//     Merging v into the entries as they are then gives the new entries,
//     which is what scan does with v, ties going to the lower slot: v < d1
//     makes slot the nearest, with d1 → d2; v == d1 makes d2 = d1, and
//     slot the nearest if it is lower (any other slot at d1 is higher than
//     the nearest); v < d2 alone lowers d2; NaN and any larger value
//     change nothing. A v ≤ d2 ≤ d2* lands at or below d2 either way, so
//     merging against d2 instead of d2* is exact. v == d1 = +Inf only with
//     nearest = −1 and d2 = +Inf, and the merge leaves both, as scan would:
//     it never takes +Inf.
func (s *pamScratch) update(d *DistMatrix, medoids []int, slot, old int) {
	oldRow, newRow := d.row(old), d.row(medoids[slot])
	for i, near := range s.nearest {
		vOld, v, d1, d2 := oldRow[i], newRow[i], s.d1[i], s.d2[i]
		switch {
		case near == slot && v < d2:
			s.d1[i] = v
		case near == slot || !(vOld > d2) && !(v <= d2):
			s.scan(d.row(i), medoids, i)
		case v < d1:
			s.nearest[i], s.d1[i], s.d2[i] = slot, v, d1
		case v == d1:
			s.d2[i] = v
			if slot < near {
				s.nearest[i] = slot
			}
		case v < d2:
			s.d2[i] = v
		}
	}
}

// swapOut fills rest for the cached medoids without medoids[mi].
func (s *pamScratch) swapOut(mi int) {
	for i, near := range s.nearest {
		if near == mi {
			s.rest[i] = s.d2[i]
		} else {
			s.rest[i] = s.d1[i]
		}
	}
}

// screen fills shared and corr for the cached medoids in one pass per
// non-medoid candidate (FastPAM1, Schubert & Rousseeuw) and reports
// whether swapFrom may use them this round: only when cost and every d2
// are finite, as swapFrom's bound assumes. A finite d2 also means every
// observation has a nearest medoid to charge its correction to. Each min
// is Go's min, which gives the value minSum's rule gives for any distance
// but NaN and costs less than the two branches that rule takes per term.
// A NaN distance d(o, i) makes shared[o] NaN, and a NaN estimate never
// passes screenedOut's test, so every trial of candidate o runs exactly.
func (s *pamScratch) screen(d *DistMatrix, k int, cost float64) bool {
	if math.IsNaN(cost) || math.IsInf(cost, 0) {
		return false
	}
	for _, v := range s.d2 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	n := d.N()
	corr := s.corr[:k*n]
	clear(corr)
	d1, d2, nearest := s.d1[:n], s.d2[:n], s.nearest[:n]
	for o := 0; o < n; o++ {
		if s.medoid[o] {
			continue
		}
		sum := 0.0
		for i, v := range d.row(o)[:n] {
			m1, m2 := min(v, d1[i]), min(v, d2[i])
			sum += m1
			corr[nearest[i]*n+o] += m2 - m1
		}
		s.shared[o] = sum
	}
	return true
}

// screenMargin is swapFrom's K = 4(n+2)·2⁻⁵³, exact in float64.
func screenMargin(n int) float64 { return float64(4*(n+2)) * 0x1p-53 }

// screenedOut reports whether the screen proves that trial mi → o fails
// the acceptance test c − cost < thr (see swapFrom). It is valid only in a
// round whose screen call returned true.
func (s *pamScratch) screenedOut(mi, o int, cost, margin, thr float64) bool {
	a := s.shared[o] + s.corr[mi*len(s.shared)+o]
	return a-cost-margin*(a+math.Abs(cost)) > thr
}

// minSum is Σᵢ min(rest[i], row[i]) in i order, taking row[i] only when
// it is strictly smaller, as pamCost's scan does. With row = d.row(c) it
// is pamCost of the medoids rest describes plus c.
func minSum(row, rest []float64) float64 {
	rest = rest[:len(row)]
	c := 0.0
	for i, v := range row {
		t := rest[i]
		if v < t {
			t = v
		}
		c += t
	}
	return c
}

// swapFrom runs the SWAP phase to convergence, improving medoids in place.
// The nearest distances are cached once per start and updated after each
// accepted swap (update); a trial swap mi → o then costs minSum over row o
// of the (symmetric) matrix, unless the round's screen proves the trial
// cannot pass the acceptance test.
//
// The screen. Trial mi → o costs c = minSum(d.row(o), rest), the in-order
// float sum of tᵢ = min(d(o,i), restᵢ); call the real sum S. Its screen
// estimate is a = shared[o] + corr[mi·n+o], whose real value is S too,
// because tᵢ = min(d(o,i), d1ᵢ) + [nearestᵢ = mi]·(min(d(o,i), d2ᵢ) −
// min(d(o,i), d1ᵢ)). Distances are non-negative or NaN (square roots), so
// with cost and d2 finite every term and every difference is non-negative
// and finite, and the estimates differ from S by rounding alone. With
// u = 2⁻⁵³ and γₘ = m·u/(1−m·u), and since an addition or subtraction
// that underflows is exact, so that fl(x ± y) = (x ± y)(1+δ) with |δ| ≤ u
// always (Higham, Accuracy and Stability of Numerical Algorithms, §2.2
// and §4.2):
//
//   - a sum of n non-negative terms in any order is within γₙ₋₁ of its
//     real value: |c − S| ≤ γₙ₋₁·S;
//   - shared[o] is within γₙ₋₁ and corr within γₙ (one rounding per
//     difference, then the sum), so after the final addition
//     |a − S| ≤ γₙ₊₁·S, and |c − a| ≤ 2γₙ₊₁·S ≤ 2γₙ₊₁·a/(1 − γₙ₊₁);
//   - x = fl(a − cost) = (a − cost)(1+δ), so a − cost ≥ x − u·(a + |cost|).
//
// Together c − cost ≥ x − E·(a + |cost|) with E = u + 2γₙ₊₁/(1 − γₙ₊₁)
// = u + 2t/(1 − 2t), t = (n+1)·u; for t ≤ 1/4, that is any n a matrix
// could hold, E ≤ (4n+5)·u. The margin m = fl(K·fl(a + |cost|)) with
// K = 4(n+2)·u covers it: the sum and a normal product each lose at most a
// factor (1 − u), leaving m ≥ (4n+7.9)·u·(a + |cost|); a subnormal product
// is off by at most 2⁻¹⁰⁷⁵, less than the slack 2.9·u·(a + |cost|) once
// a + |cost| ≥ 2⁻¹⁰²². Below that every sum is subnormal and so exact:
// c = a, x = a − cost, and any m ≥ 0 will do. A fused multiply-subtract
// only removes a rounding.
//
// A trial is skipped when fl(x − m) > thr, thr = fl(bestDelta − 1e-12), the
// acceptance test's own right-hand side. Rounding is monotone and thr is a
// float, so x − m > thr in the reals, hence c − cost > thr and
// fl(c − cost) ≥ thr: the exact test c − cost < thr rejects the trial.
// Every skipped trial is one the exact scan rejects, rejections leave
// bestDelta alone, and the survivors are tested exactly in the same
// (mi, o) order — so bestDelta, the medoid sequence and every cost keep
// their bits. When a sum overflows, or the candidate's row holds a NaN
// distance, x − m is NaN or −Inf, so the trial runs exactly.
func swapFrom(d *DistMatrix, medoids []int, s *pamScratch) []int {
	n, k := d.N(), len(medoids)
	if len(s.corr) < k*n {
		s.corr = make([]float64, k*n)
	}
	clear(s.medoid)
	for _, m := range medoids {
		s.medoid[m] = true
	}
	margin := screenMargin(n)
	s.cache(d, medoids)
	cost := 0.0 // Σ d1 in i order: pamCost(medoids), bit for bit
	for _, v := range s.d1 {
		cost += v
	}
	for swap := 0; swap < pamMaxSwaps; swap++ {
		screened := s.screen(d, k, cost)
		bestDelta := 0.0
		bestM, bestO := -1, -1
		for mi := range medoids {
			restFilled := false
			for o := 0; o < n; o++ {
				if s.medoid[o] {
					continue
				}
				if screened && s.screenedOut(mi, o, cost, margin, bestDelta-1e-12) {
					continue
				}
				if !restFilled {
					s.swapOut(mi)
					restFilled = true
				}
				if c := minSum(d.row(o), s.rest); c-cost < bestDelta-1e-12 {
					bestDelta = c - cost
					bestM, bestO = mi, o
				}
			}
		}
		if bestM < 0 {
			break
		}
		old := medoids[bestM]
		s.medoid[old], s.medoid[bestO] = false, true
		medoids[bestM] = bestO
		cost += bestDelta
		s.update(d, medoids, bestM, old)
	}
	return medoids
}

// randomMedoids draws k distinct indices below len(perm), shuffling perm
// in place.
func randomMedoids(perm []int, k int, rng *xrand.Rand) []int {
	n := len(perm)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:k]
}

// pamBuild greedily selects k initial medoids: the most central point
// first, then the point that most reduces total cost at each step. The
// scratch's d1 holds each observation's distance to its nearest chosen
// medoid, so a candidate c costs Σᵢ min(d1[i], d(i, c)) — the minimum
// pamCost over the medoids plus c takes, summed in the same order.
func pamBuild(d *DistMatrix, k int, s *pamScratch) []int {
	n := d.N()
	// First medoid: minimal total distance to everything.
	best, bestSum := 0, math.Inf(1)
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			sum += d.At(i, j)
		}
		if sum < bestSum {
			best, bestSum = i, sum
		}
	}
	d1 := s.d1
	for i := range d1 {
		d1[i] = math.Inf(1)
	}
	clear(s.medoid)
	medoids := make([]int, 0, k)
	for {
		medoids = append(medoids, best)
		s.medoid[best] = true
		for i, v := range d.row(best) {
			if v < d1[i] {
				d1[i] = v
			}
		}
		if len(medoids) == k {
			return medoids
		}
		bestCost := math.Inf(1)
		best = -1
		for c := 0; c < n; c++ {
			if s.medoid[c] {
				continue
			}
			if cost := minSum(d.row(c), d1); cost < bestCost {
				best, bestCost = c, cost
			}
		}
	}
}

// pamCost is the sum over observations of the distance to the nearest
// medoid.
func pamCost(d *DistMatrix, medoids []int) float64 {
	n := d.N()
	total := 0.0
	for i := 0; i < n; i++ {
		min := math.Inf(1)
		for _, m := range medoids {
			if d.At(i, m) < min {
				min = d.At(i, m)
			}
		}
		total += min
	}
	return total
}
