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
	return dunn(d, clusterMembers(a))
}

// dunn is DunnDist over the assignment's clusterMembers.
func dunn(d *DistMatrix, members [][]int) float64 {
	k := len(members)
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
// exactly what a.Members reports per cluster, materialized once, over one
// flat slice, instead of per lookup inside the validation loops.
func clusterMembers(a Assignment) [][]int {
	k := a.K()
	out := make([][]int, k)
	flat := make([]int, k+len(a))
	size, idx := flat[:k], flat[k:]
	for _, c := range a {
		size[c]++
	}
	off := 0
	for c, sz := range size {
		out[c] = idx[off : off : off+sz]
		off += sz
	}
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
	if a.K() < 2 {
		return 0
	}
	return silhouette(d, a, clusterMembers(a))
}

// silhouette is SilhouetteDist over the assignment's clusterMembers, for
// at least two clusters.
func silhouette(d *DistMatrix, a Assignment, members [][]int) float64 {
	k := len(members)
	n := d.N()
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
// computes both from one re-clustering per removed column, in one pass
// over one set of masks per column (stabilityColumn).

// clusterMasks returns every cluster's membership as index-ordered masks,
// built in one pass over one flat slice instead of one O(n) scan per
// observation. Ordered iteration matters: accumulating distances in Go's
// randomized map order perturbs the sums by ULPs from run to run, which
// breaks the pipeline's bit-for-bit determinism guarantee.
func clusterMasks(a Assignment) [][]bool {
	n := len(a)
	out := make([][]bool, a.K())
	flat := make([]bool, len(out)*n)
	for c := range out {
		out[c] = flat[c*n : (c+1)*n]
	}
	for i, ci := range a {
		out[ci][i] = true
	}
	return out
}

// stabilityColumn is one removed column's contribution to both stability
// measures, given the full-data and reduced-data assignments and their
// clusterMasks. apn is the APN term: per observation, 1 minus the overlap
// ratio of its full-data cluster and its reduced-data cluster, averaged.
// ad is the AD term: the mean distance between each observation and the
// observations both clusterings place with it. Lower is better for both.
// Each accumulator sums its terms in the order a separate pass per measure
// would, so both have that pass's bits.
func stabilityColumn(d *DistMatrix, full Assignment, fullMasks [][]bool, reduced Assignment, reducedMasks [][]bool) (apn, ad float64) {
	n := len(full)
	for i := 0; i < n; i++ {
		cf := fullMasks[full[i]]
		cr := reducedMasks[reduced[i]]
		inter, size, acc := 0, 0, 0.0
		for m := 0; m < n; m++ {
			if cf[m] {
				size++
				if cr[m] {
					inter++
					acc += d.At(i, m)
				}
			}
		}
		if size > 0 {
			apn += 1 - float64(inter)/float64(size)
		}
		if inter > 0 {
			ad += acc / float64(inter)
		}
	}
	return apn / float64(n), ad / float64(n)
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
// reproducing the paper's Figure 4 analysis. kMax is capped at n-1.
//
// It runs in two passes on a worker pool. The first has one job per
// (algorithm, row set) — the full rows, and the rows with each feature
// column removed — that clusters the set for every k (clusterRowSet). The
// second scores each (algorithm, k) cell from those clusterings: Dunn and
// Silhouette on the full-data one, APN and AD from the per-column ones.
// Results land in algorithm-major, k-ascending order whatever the
// completion order. The algorithms must be safe for concurrent use (the
// package's three are: Cluster derives all mutable state, including
// seeded RNGs, per call). workers <= 0 selects all CPUs.
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
	// job: the matrices are immutable, so sharing them across the worker
	// pool is race-free and saves each job its own O(n²·d) recomputation
	// per clustering and per stability column.
	mats := NewMatrices(rows)
	sets := 1 + len(mats.Dropped)
	// runs[(a·nk + ki)·sets + set] is algs[a]'s clustering of row set set
	// into kMin+ki clusters, so one cell's runs are contiguous.
	runs := make([]Assignment, len(algs)*nk*sets)
	err := par.ForEach(ctx, workers, len(algs)*sets, func(ctx context.Context, job int) error {
		a, set := job/sets, job%sets
		got, err := clusterRowSet(ctx, algs[a], mats, set, kMin, kMax)
		for ki, asg := range got {
			runs[(a*nk+ki)*sets+set] = asg
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	scores := make([]Scores, len(algs)*nk)
	assigns := make([]Assignment, len(scores))
	err = par.ForEach(ctx, workers, len(scores), func(_ context.Context, cell int) error {
		cellRuns := runs[cell*sets : (cell+1)*sets]
		scores[cell] = scoreCell(algs[cell/nk].Name(), kMin+cell%nk, mats.Full, cellRuns)
		assigns[cell] = cellRuns[0]
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return scores, assigns, nil
}

// clusterRowSet clusters one of the sweep's row sets into every k in
// kMin..kMax: set 0 is mats.Rows, set 1+j is mats.DroppedRows[j]. Ward
// builds the set's dendrogram once and cuts it per k; Cluster would build
// the same one per k. The context is checked before every clustering and
// every cut, so a cancelled sweep stops within one job.
func clusterRowSet(ctx context.Context, alg Algorithm, mats *Matrices, set, kMin, kMax int) ([]Assignment, error) {
	rows, dm := mats.Rows, mats.Full
	if set > 0 {
		rows, dm = mats.DroppedRows[set-1], mats.Dropped[set-1]
	}
	fail := func(err error) ([]Assignment, error) {
		if set > 0 {
			err = fmt.Errorf("cluster: sweep with column %d removed: %w", set-1, err)
		}
		return nil, err
	}
	var den *Dendrogram
	out := make([]Assignment, kMax-kMin+1)
	for i := range out {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var err error
		if h, ok := alg.(*Hierarchical); ok {
			if den == nil {
				if den, err = h.Dendrogram(rows); err != nil {
					return fail(err)
				}
			}
			out[i], err = den.Cut(kMin + i)
		} else {
			out[i], err = clusterDist(alg, rows, dm, kMin+i)
		}
		if err != nil {
			return fail(err)
		}
	}
	return out, nil
}

// scoreCell computes the (alg, k) cell's validation scores from its runs:
// runs[0] clusters the full rows, runs[1+j] the rows without column j.
// APN and AD sum the columns in j order, then average.
func scoreCell(alg string, k int, d *DistMatrix, runs []Assignment) Scores {
	full := runs[0]
	members := clusterMembers(full)
	s := Scores{Algorithm: alg, K: k, Dunn: dunn(d, members)}
	if len(members) >= 2 {
		s.Silhouette = silhouette(d, full, members)
	}
	fullMasks := clusterMasks(full)
	for _, reduced := range runs[1:] {
		apn, ad := stabilityColumn(d, full, fullMasks, reduced, clusterMasks(reduced))
		s.APN += apn
		s.AD += ad
	}
	nc := float64(len(runs) - 1)
	s.APN /= nc
	s.AD /= nc
	return s
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
