package cluster

import (
	"context"
	"fmt"
	"math"

	"mobilebench/internal/par"
)

// Internal validation ---------------------------------------------------

// DunnDist returns the Dunn index of the assignment over a precomputed
// distance matrix: the minimum inter-cluster distance divided by the
// maximum intra-cluster diameter. Higher is better.
func DunnDist(d *DistMatrix, a Assignment) float64 {
	k := a.K()
	members := clusterMembers(a)
	minInter := math.Inf(1)
	maxDiam := 0.0
	for c1 := 0; c1 < k; c1++ {
		m1 := members[c1]
		for _, i := range m1 {
			for _, j := range m1 {
				if d.At(i, j) > maxDiam {
					maxDiam = d.At(i, j)
				}
			}
		}
		for c2 := c1 + 1; c2 < k; c2++ {
			for _, i := range m1 {
				for _, j := range members[c2] {
					if d.At(i, j) < minInter {
						minInter = d.At(i, j)
					}
				}
			}
		}
	}
	if maxDiam == 0 {
		return math.Inf(1)
	}
	return minInter / maxDiam
}

// clusterMembers returns each cluster's member indices, index-ordered —
// exactly what a.Members reports per cluster, materialized once instead of
// per lookup inside the validation loops.
func clusterMembers(a Assignment) [][]int {
	out := make([][]int, a.K())
	for i, c := range a {
		out[c] = append(out[c], i)
	}
	return out
}

// Silhouette returns the mean silhouette width of the assignment. For each
// observation, s = (b - a) / max(a, b) where a is the mean distance to its
// own cluster and b the smallest mean distance to another cluster.
// Singleton clusters contribute 0, following Kaufman & Rousseeuw. Higher is
// better; the range is [-1, 1].
func Silhouette(rows [][]float64, a Assignment) float64 {
	return SilhouetteDist(NewDistMatrix(rows), a)
}

// SilhouetteDist is Silhouette over a precomputed distance matrix.
func SilhouetteDist(d *DistMatrix, a Assignment) float64 {
	k := a.K()
	if k < 2 {
		return 0
	}
	n := d.N()
	members := clusterMembers(a)
	total := 0.0
	for i := 0; i < n; i++ {
		own := members[a[i]]
		if len(own) <= 1 {
			continue // silhouette of a singleton is defined as 0
		}
		ai := 0.0
		for _, j := range own {
			if j != i {
				ai += d.At(i, j)
			}
		}
		ai /= float64(len(own) - 1)

		bi := math.Inf(1)
		for c := 0; c < k; c++ {
			if c == a[i] {
				continue
			}
			if len(members[c]) == 0 {
				continue
			}
			sum := 0.0
			for _, j := range members[c] {
				sum += d.At(i, j)
			}
			if v := sum / float64(len(members[c])); v < bi {
				bi = v
			}
		}
		if m := math.Max(ai, bi); m > 0 {
			total += (bi - ai) / m
		}
	}
	return total / float64(n)
}

// Stability validation ----------------------------------------------------
//
// APN and AD (Datta & Datta) measure how a clustering holds up when each
// feature column is removed in turn and the data re-clustered. The sweep
// computes both from one re-clustering per removed column (computeCell);
// the per-column contributions are below.

// proportionNonOverlap is one removed column's contribution to the APN
// measure: per observation, 1 minus the overlap ratio of its full-data
// cluster and its reduced-data cluster, averaged. Lower is better.
func proportionNonOverlap(full, reduced Assignment) float64 {
	n := len(full)
	fullMasks := clusterMasks(full)
	reducedMasks := clusterMasks(reduced)
	total := 0.0
	for i := 0; i < n; i++ {
		cf := fullMasks[full[i]]
		cr := reducedMasks[reduced[i]]
		inter, size := 0, 0
		for m := 0; m < n; m++ {
			if cf[m] {
				size++
				if cr[m] {
					inter++
				}
			}
		}
		if size > 0 {
			total += 1 - float64(inter)/float64(size)
		}
	}
	return total / float64(n)
}

// clusterMasks returns every cluster's membership as index-ordered masks,
// built in one pass instead of one O(n) scan per observation. Ordered
// iteration matters: accumulating distances in Go's randomized map order
// perturbs the sums by ULPs from run to run, which breaks the pipeline's
// bit-for-bit determinism guarantee.
func clusterMasks(a Assignment) [][]bool {
	out := make([][]bool, a.K())
	for c := range out {
		out[c] = make([]bool, len(a))
	}
	for i, ci := range a {
		out[ci][i] = true
	}
	return out
}

// adColumn is one removed column's contribution to the AD measure: the
// mean distance between each observation and the observations placed in
// its cluster by both the full and the reduced clustering. Lower is
// better.
func adColumn(d *DistMatrix, full Assignment, fullMasks [][]bool, reduced Assignment) float64 {
	n := len(full)
	reducedMasks := clusterMasks(reduced)
	sum := 0.0
	for i := 0; i < n; i++ {
		cf := fullMasks[full[i]]
		cr := reducedMasks[reduced[i]]
		cnt, acc := 0, 0.0
		for m := 0; m < n; m++ {
			if cf[m] && cr[m] {
				acc += d.At(i, m)
				cnt++
			}
		}
		if cnt > 0 {
			sum += acc / float64(cnt)
		}
	}
	return sum / float64(n)
}

// Validation sweep ---------------------------------------------------------

// Scores holds the four validation measures for one (algorithm, k) pair.
type Scores struct {
	Algorithm  string
	K          int
	Dunn       float64
	Silhouette float64
	APN        float64
	AD         float64
}

// SweepContext runs every algorithm over k = kMin..kMax and returns the
// scores, plus each cell's full-data assignment in the same order,
// reproducing the paper's Figure 4 analysis. kMax is capped at n-1. Each
// (algorithm, k) cell is an independent job on a worker pool, and results
// land in algorithm-major, k-ascending order whatever the completion
// order. The algorithms must be safe for concurrent use (the package's
// three are: Cluster derives all mutable state, including seeded RNGs, per
// call). workers <= 0 selects all CPUs.
func SweepContext(ctx context.Context, algs []Algorithm, rows [][]float64, kMin, kMax, workers int) ([]Scores, []Assignment, error) {
	switch {
	case kMin < 2:
		return nil, nil, fmt.Errorf("cluster: sweep needs kMin >= 2")
	case kMax < kMin:
		return nil, nil, fmt.Errorf("cluster: sweep kMax %d < kMin %d", kMax, kMin)
	case len(algs) == 0:
		return nil, nil, fmt.Errorf("cluster: sweep needs at least one algorithm")
	case len(rows) < kMin+1:
		return nil, nil, fmt.Errorf("cluster: sweep needs at least %d observations, have %d", kMin+1, len(rows))
	}
	if kMax >= len(rows) {
		kMax = len(rows) - 1
	}
	nk := kMax - kMin + 1
	// One set of distance matrices (full + per-column reduced) backs every
	// cell: the matrices are immutable, so sharing them across the worker
	// pool is race-free and saves each cell its own O(n²·d) recomputation
	// per clustering and per stability column.
	mats := NewMatrices(rows)
	scores := make([]Scores, len(algs)*nk)
	assigns := make([]Assignment, len(scores))
	err := par.ForEach(ctx, workers, len(scores), func(ctx context.Context, j int) error {
		var err error
		scores[j], assigns[j], err = computeCell(ctx, algs[j/nk], kMin+j%nk, mats)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return scores, assigns, nil
}

// computeCell produces one (algorithm, k) cell: the full-data clustering,
// one re-clustering per removed feature column, and the four validation
// scores. Each column's re-clustering feeds both APN and AD. The context is
// checked before the full clustering and before every column, so a
// cancelled sweep stops within one cell.
func computeCell(ctx context.Context, alg Algorithm, k int, mats *Matrices) (Scores, Assignment, error) {
	if err := ctx.Err(); err != nil {
		return Scores{}, nil, err
	}
	full, err := clusterDist(alg, mats.Rows, mats.Full, k)
	if err != nil {
		return Scores{}, nil, err
	}
	nc := len(mats.Rows[0])
	fullMasks := clusterMasks(full)
	apn, ad := 0.0, 0.0
	for j := 0; j < nc; j++ {
		if err := ctx.Err(); err != nil {
			return Scores{}, nil, err
		}
		r, err := clusterDist(alg, mats.DroppedRows[j], mats.Dropped[j], k)
		if err != nil {
			return Scores{}, nil, fmt.Errorf("cluster: sweep with column %d removed: %w", j, err)
		}
		apn += proportionNonOverlap(full, r)
		ad += adColumn(mats.Full, full, fullMasks, r)
	}
	return Scores{
		Algorithm:  alg.Name(),
		K:          k,
		Dunn:       DunnDist(mats.Full, full),
		Silhouette: SilhouetteDist(mats.Full, full),
		APN:        apn / float64(nc),
		AD:         ad / float64(nc),
	}, full, nil
}

// BestK aggregates a sweep the way the paper does: each internal measure
// votes for the k with the best value per algorithm, stability measures
// vote likewise, and the k with the most votes wins (ties break low).
func BestK(scores []Scores) int {
	votes := make(map[int]int)
	type key struct {
		alg     string
		measure string
	}
	best := make(map[key]struct {
		k int
		v float64
	})
	consider := func(alg, measure string, k int, v float64, higherBetter bool) {
		kk := key{alg, measure}
		cur, ok := best[kk]
		better := v > cur.v
		if !higherBetter {
			better = v < cur.v
		}
		if !ok || better {
			best[kk] = struct {
				k int
				v float64
			}{k, v}
		}
	}
	for _, s := range scores {
		consider(s.Algorithm, "dunn", s.K, s.Dunn, true)
		consider(s.Algorithm, "silhouette", s.K, s.Silhouette, true)
		consider(s.Algorithm, "apn", s.K, s.APN, false)
		consider(s.Algorithm, "ad", s.K, s.AD, false)
	}
	for _, b := range best {
		votes[b.k]++
	}
	bestK, bestVotes := 0, -1
	for k, v := range votes {
		if v > bestVotes || (v == bestVotes && k < bestK) {
			bestK, bestVotes = k, v
		}
	}
	return bestK
}
