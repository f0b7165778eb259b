package cluster

import (
	"math"

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
// medoid (ties to the lowest index).
func assignToMedoids(d *DistMatrix, medoids []int) Assignment {
	n := d.N()
	assign := make(Assignment, n)
	for i := 0; i < n; i++ {
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
}

func newPAMScratch(n int) *pamScratch {
	idx := make([]int, 2*n)
	d := make([]float64, 3*n)
	return &pamScratch{nearest: idx[:n], perm: idx[n:], d1: d[:n], d2: d[n : 2*n], rest: d[2*n:]}
}

// cache fills the scratch for medoids. d2 is the second minimum of the
// multiset of distances, so a tie at the nearest distance gives d2 == d1.
func (s *pamScratch) cache(d *DistMatrix, medoids []int) {
	for i := range s.nearest {
		near, d1, d2 := -1, math.Inf(1), math.Inf(1)
		for mi, m := range medoids {
			v := d.At(i, m)
			if v < d1 {
				near, d1, d2 = mi, v, d1
			} else if v < d2 {
				d2 = v
			}
		}
		s.nearest[i], s.d1[i], s.d2[i] = near, d1, d2
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
// Each round caches the nearest distances once; a trial swap mi → o then
// costs minSum over row o of the (symmetric) matrix.
func swapFrom(d *DistMatrix, medoids []int, s *pamScratch) []int {
	n := d.N()
	s.cache(d, medoids)
	cost := 0.0 // Σ d1 in i order: pamCost(medoids), bit for bit
	for _, v := range s.d1 {
		cost += v
	}
	for swap := 0; swap < pamMaxSwaps; swap++ {
		bestDelta := 0.0
		bestM, bestO := -1, -1
		for mi := range medoids {
			s.swapOut(mi)
			for o := 0; o < n; o++ {
				if isMedoid(medoids, o) {
					continue
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
		medoids[bestM] = bestO
		cost += bestDelta
		s.cache(d, medoids)
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
	medoids := make([]int, 0, k)
	for {
		medoids = append(medoids, best)
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
			if isMedoid(medoids, c) {
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

func isMedoid(medoids []int, i int) bool {
	for _, m := range medoids {
		if m == i {
			return true
		}
	}
	return false
}
