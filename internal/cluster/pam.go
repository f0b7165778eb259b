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

	best := p.swapFrom(d, pamBuild(d, k))
	bestCost := pamCost(d, best)
	for r := 0; r < pamRestarts; r++ {
		rng := xrand.New(pamSeed).Split(uint64(r) + 1)
		start := randomMedoids(n, k, rng)
		m := p.swapFrom(d, start)
		if c := pamCost(d, m); c < bestCost-1e-12 {
			best, bestCost = m, c
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

// swapFrom runs the SWAP phase to convergence from the given medoids. The
// candidate medoid set is built in a single reused buffer: the sweep calls
// this O(k·n) times per swap round, and a fresh slice per candidate was
// measurable allocation churn.
func (p *PAM) swapFrom(d *DistMatrix, medoids []int) []int {
	medoids = append([]int(nil), medoids...)
	n := d.N()
	trial := make([]int, len(medoids))
	cost := pamCost(d, medoids)
	for swap := 0; swap < pamMaxSwaps; swap++ {
		bestDelta := 0.0
		bestM, bestO := -1, -1
		for mi := range medoids {
			for o := 0; o < n; o++ {
				if isMedoid(medoids, o) {
					continue
				}
				copy(trial, medoids)
				trial[mi] = o
				if c := pamCost(d, trial); c-cost < bestDelta-1e-12 {
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
	}
	return medoids
}

// randomMedoids draws k distinct indices.
func randomMedoids(n, k int, rng *xrand.Rand) []int {
	perm := make([]int, n)
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
// first, then the point that most reduces total cost at each step.
func pamBuild(d *DistMatrix, k int) []int {
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
	medoids := []int{best}
	trial := make([]int, 0, k)
	for len(medoids) < k {
		bestCand, bestCost := -1, math.Inf(1)
		for c := 0; c < n; c++ {
			if isMedoid(medoids, c) {
				continue
			}
			trial = append(trial[:0], medoids...)
			trial = append(trial, c)
			if cost := pamCost(d, trial); cost < bestCost {
				bestCand, bestCost = c, cost
			}
		}
		medoids = append(medoids, bestCand)
	}
	return medoids
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
