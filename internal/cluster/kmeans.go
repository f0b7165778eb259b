package cluster

import (
	"math"

	"mobilebench/internal/stats"
	"mobilebench/internal/xrand"
)

// KMeans is Lloyd's algorithm with k-means++ seeding and multiple restarts.
// It is deterministic for a given Seed.
type KMeans struct {
	// MaxIter bounds Lloyd iterations per restart (default 100).
	MaxIter int
	// Restarts is how many seedings to try, keeping the best WCSS
	// (default 8).
	Restarts int
	// Seed drives the deterministic k-means++ seeding (default 1).
	Seed uint64
}

// NewKMeans returns a KMeans with default parameters.
func NewKMeans() *KMeans { return &KMeans{MaxIter: 100, Restarts: 8, Seed: 1} }

// Name implements Algorithm.
func (k *KMeans) Name() string { return "kmeans" }

// Cluster implements Algorithm.
func (k *KMeans) Cluster(rows [][]float64, kk int) (Assignment, error) {
	if err := validate(rows, kk); err != nil {
		return nil, err
	}
	return k.cluster(rows, nil, kk)
}

// ClusterDist implements DistAlgorithm. K-means++ seeding only measures
// distances between actual observations (candidate centers are row copies),
// so the precomputed matrix serves the entire seeding pass of every restart;
// Lloyd iterations measure against moving centroids and still use the rows.
func (k *KMeans) ClusterDist(rows [][]float64, dm *DistMatrix, kk int) (Assignment, error) {
	if err := validate(rows, kk); err != nil {
		return nil, err
	}
	return k.cluster(rows, dm, kk)
}

func (k *KMeans) cluster(rows [][]float64, dm *DistMatrix, kk int) (Assignment, error) {
	maxIter := k.MaxIter
	if maxIter <= 0 {
		maxIter = 100
	}
	restarts := k.Restarts
	if restarts <= 0 {
		restarts = 8
	}
	seed := k.Seed
	if seed == 0 {
		seed = 1
	}

	var best Assignment
	bestSS := math.Inf(1)
	for r := 0; r < restarts; r++ {
		rng := xrand.New(seed).Split(uint64(r) + 1)
		a := k.once(rows, dm, kk, maxIter, rng)
		if ss := withinClusterSS(rows, a); ss < bestSS {
			bestSS = ss
			best = a
		}
	}
	return best.Canonical(), nil
}

// once runs one seeded Lloyd pass: k-means++ seeding, then assignment and
// centroid updates to convergence (or maxIter).
func (k *KMeans) once(rows [][]float64, dm *DistMatrix, kk, maxIter int, rng *xrand.Rand) Assignment {
	centers := plusPlusSeed(rows, dm, kk, rng)
	assign := make(Assignment, len(rows))
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, row := range rows {
			best, bestD := 0, math.Inf(1)
			for c, cen := range centers {
				if d := stats.Euclidean(row, cen); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centroids; re-seed empty clusters on the farthest
		// point from its center to keep k clusters alive.
		for c := 0; c < kk; c++ {
			members := assign.Members(c)
			if len(members) == 0 {
				far, farD := 0, -1.0
				for i, row := range rows {
					d := stats.Euclidean(row, centers[assign[i]])
					if d > farD {
						far, farD = i, d
					}
				}
				assign[far] = c
				members = []int{far}
				changed = true
			}
			centers[c] = centroid(rows, members)
		}
		if !changed {
			break
		}
	}
	return assign
}

// plusPlusSeed picks kk initial centers with the k-means++ D^2 weighting.
// Until Lloyd moves them, centers are exact row copies, so when dm is
// non-nil every seeding distance is a matrix lookup — bit-identical to the
// stats.Euclidean call it replaces.
func plusPlusSeed(rows [][]float64, dm *DistMatrix, kk int, rng *xrand.Rand) [][]float64 {
	dist := func(i, c int) float64 { return stats.Euclidean(rows[i], rows[c]) }
	if dm != nil {
		dist = dm.At
	}
	idx := make([]int, 0, kk)
	idx = append(idx, rng.Intn(len(rows)))
	d2 := make([]float64, len(rows))
	for len(idx) < kk {
		total := 0.0
		for i := range rows {
			min := math.Inf(1)
			for _, c := range idx {
				if d := dist(i, c); d < min {
					min = d
				}
			}
			d2[i] = min * min
			total += d2[i]
		}
		var next int
		if total == 0 {
			next = rng.Intn(len(rows))
		} else {
			target := rng.Float64() * total
			acc := 0.0
			next = len(rows) - 1
			for i, w := range d2 {
				acc += w
				if acc >= target {
					next = i
					break
				}
			}
		}
		idx = append(idx, next)
	}
	centers := make([][]float64, len(idx))
	for i, c := range idx {
		centers[i] = append([]float64(nil), rows[c]...)
	}
	return centers
}
