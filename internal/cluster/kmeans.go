package cluster

import (
	"fmt"
	"math"

	"mobilebench/internal/stats"
	"mobilebench/internal/xrand"
)

// KMeans is Lloyd's algorithm with k-means++ seeding and kmeansRestarts
// seeded restarts, keeping the best WCSS. It is deterministic.
type KMeans struct{}

// K-means search constants.
const (
	// kmeansMaxIter bounds Lloyd iterations per restart.
	kmeansMaxIter = 100
	// kmeansRestarts is how many seedings are tried.
	kmeansRestarts = 8
	// kmeansSeed drives the deterministic k-means++ seeding.
	kmeansSeed = 1
)

// NewKMeans returns a KMeans.
func NewKMeans() *KMeans { return &KMeans{} }

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
	s := newKMeansScratch(len(rows), len(rows[0]), kk)
	base := xrand.New(kmeansSeed) // Split leaves its parent unchanged
	found, bestSS := false, math.Inf(1)
	for r := 0; r < kmeansRestarts; r++ {
		a := s.once(rows, dm, kk, base.Split(uint64(r)+1))
		if ss := s.withinClusterSS(rows, a); ss < bestSS {
			found, bestSS = true, ss
			copy(s.best, a)
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: k-means within-cluster sum of squares is not finite for any restart")
	}
	return s.best.Canonical(), nil
}

// kmeansScratch is one cluster call's working memory, reused by every
// restart: the current and the best assignment, the k-means++ row indices
// and D² weights, the centers stored flat (center c is
// centers[c·nc:(c+1)·nc]) and one centroid for withinClusterSS.
type kmeansScratch struct {
	assign, best Assignment
	idx          []int
	d2           []float64
	centers      []float64
	cen          []float64
	nc           int
}

func newKMeansScratch(n, nc, kk int) *kmeansScratch {
	ints := make([]int, 2*n+kk)
	fl := make([]float64, n+(kk+1)*nc)
	return &kmeansScratch{
		assign: ints[:n], best: ints[n : 2*n], idx: ints[2*n : 2*n : 2*n+kk],
		d2: fl[:n], centers: fl[n : n+kk*nc], cen: fl[n+kk*nc:], nc: nc,
	}
}

// center returns center c.
func (s *kmeansScratch) center(c int) []float64 { return s.centers[c*s.nc : (c+1)*s.nc] }

// once runs one seeded Lloyd pass: k-means++ seeding, then assignment and
// centroid updates to convergence (or kmeansMaxIter). It returns the
// scratch's assignment, valid until the next call.
func (s *kmeansScratch) once(rows [][]float64, dm *DistMatrix, kk int, rng *xrand.Rand) Assignment {
	s.plusPlusSeed(rows, dm, kk, rng)
	assign := s.assign
	clear(assign)
	for iter := 0; iter < kmeansMaxIter; iter++ {
		changed := false
		for i, row := range rows {
			best, bestD := 0, math.Inf(1)
			for c := 0; c < kk; c++ {
				if d := stats.Euclidean(row, s.center(c)); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centroids in c order, each against the centers
		// already updated this pass; re-seed empty clusters on the
		// farthest point from its center to keep k clusters alive.
		for c := 0; c < kk; c++ {
			if centroidOf(s.center(c), rows, assign, c) > 0 {
				continue
			}
			far, farD := 0, -1.0
			for i, row := range rows {
				d := stats.Euclidean(row, s.center(assign[i]))
				if d > farD {
					far, farD = i, d
				}
			}
			assign[far] = c
			changed = true
			centroidOf(s.center(c), rows, assign, c)
		}
		if !changed {
			break
		}
	}
	return assign
}

// withinClusterSS returns the total within-cluster sum of squared
// distances to centroids, the K-means objective, summed cluster by cluster
// and within a cluster in ascending i.
func (s *kmeansScratch) withinClusterSS(rows [][]float64, a Assignment) float64 {
	total := 0.0
	for c := range a.K() {
		if centroidOf(s.cen, rows, a, c) == 0 {
			continue
		}
		for i, ci := range a {
			if ci == c {
				d := stats.Euclidean(rows[i], s.cen)
				total += d * d
			}
		}
	}
	return total
}

// centroidOf writes cluster c's mean into dst and returns its size,
// leaving dst zero when the cluster is empty. It scans a in ascending i,
// the order a.Members(c) lists, so dst has centroid's bits.
func centroidOf(dst []float64, rows [][]float64, a Assignment, c int) int {
	clear(dst)
	cnt := 0
	for i, ci := range a {
		if ci == c {
			for j, v := range rows[i] {
				dst[j] += v
			}
			cnt++
		}
	}
	if cnt > 0 {
		for j := range dst {
			dst[j] /= float64(cnt)
		}
	}
	return cnt
}

// plusPlusSeed picks kk initial centers with the k-means++ D^2 weighting
// and copies them into the scratch's centers. Until Lloyd moves them,
// centers are exact row copies, so when dm is non-nil every seeding
// distance is a matrix lookup — bit-identical to the stats.Euclidean call
// it replaces.
func (s *kmeansScratch) plusPlusSeed(rows [][]float64, dm *DistMatrix, kk int, rng *xrand.Rand) {
	idx := append(s.idx[:0], rng.Intn(len(rows)))
	d2 := s.d2
	for len(idx) < kk {
		total := 0.0
		for i := range rows {
			min := math.Inf(1)
			for _, c := range idx {
				var d float64
				if dm != nil {
					d = dm.At(i, c)
				} else {
					d = stats.Euclidean(rows[i], rows[c])
				}
				if d < min {
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
	for c, r := range idx {
		copy(s.center(c), rows[r])
	}
}
