package cluster

import (
	"fmt"
	"math"
	"slices"

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
	return k.cluster(rows, NewDistMatrix(rows), kk)
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
// restart: the current and the best assignment, the assignment and centers
// the previous re-seeding pass left, the cluster sizes of the current
// assignment, the k-means++ row indices, running minimum distances and D²
// weights, each row's distance to its center in the last pass, the centers
// stored flat (center c is centers[c·nc:(c+1)·nc]) and one centroid for
// withinClusterSS. converged reports that the last once call ended on a
// pass whose distances withinClusterSS may reuse; passes counts its Lloyd
// passes.
type kmeansScratch struct {
	assign, best Assignment
	prevAssign   Assignment
	size, idx    []int
	minD, d2     []float64
	dist         []float64
	centers      []float64
	prevCenters  []float64
	cen          []float64
	nc           int
	converged    bool
	passes       int
}

// newKMeansScratch returns the scratch by value, so that it can live on
// its cluster call's stack: two slab allocations in all.
func newKMeansScratch(n, nc, kk int) kmeansScratch {
	ints := make([]int, 3*n+2*kk)
	fl := make([]float64, 3*n+(2*kk+1)*nc)
	return kmeansScratch{
		assign: ints[:n], best: ints[n : 2*n], prevAssign: ints[2*n : 3*n],
		size: ints[3*n : 3*n+kk], idx: ints[3*n+kk : 3*n+kk : 3*n+2*kk],
		minD: fl[:n], d2: fl[n : 2*n], dist: fl[2*n : 3*n],
		centers: fl[3*n : 3*n+kk*nc], prevCenters: fl[3*n+kk*nc : 3*n+2*kk*nc], cen: fl[3*n+2*kk*nc:], nc: nc,
	}
}

// center returns center c.
func (s *kmeansScratch) center(c int) []float64 { return s.centers[c*s.nc : (c+1)*s.nc] }

// once runs one seeded Lloyd pass: k-means++ seeding, then assignment and
// centroid updates to convergence (or kmeansMaxIter). It returns the
// scratch's assignment, valid until the next call.
//
// A pass that leaves no cluster empty recomputes every center in one pass
// over the rows (centroids); a pass that leaves one empty keeps the
// per-cluster update with its re-seeds. With no cluster empty the
// per-cluster update re-seeds nothing, so every center is centroidOf of the
// pass's assignment, which is what centroids computes, bit for bit. With a
// cluster empty it re-seeds that cluster, which changes the assignment, so
// the loop always goes on. An unchanged pass with no empty cluster ends the loop before the
// centroid update: nothing reads the centers after the loop (withinClusterSS
// reads the pass's distances or sums its own centroids, and the next
// restart seeds afresh). Breaking on an unchanged assignment alone would be
// wrong: a first pass that puts every row in cluster 0 leaves the zeroed
// assignment unchanged but must still re-seed the empty clusters.
//
// That last pass converged, for withinClusterSS, when the pass before it
// ended with centroids, so that every center is centroidOf of the final
// assignment, and every row took a candidate (a finite distance).
//
// A re-seeding pass is a function of the centers it starts from: its
// assignment comes from the centers alone, and with a cluster empty it
// re-seeds whatever the previous assignment was. So when a re-seeding pass
// that follows another leaves the assignment and the centers bit-identical
// to it, every pass after it up to kmeansMaxIter repeats it, and the loop
// stops there with what the last pass would leave, converged false. Tied
// rows at k = n reach that fixed point on their second pass: every row
// goes to center 0 and the re-seed spreads them again.
func (s *kmeansScratch) once(rows [][]float64, dm *DistMatrix, kk int, rng *xrand.Rand) Assignment {
	s.plusPlusSeed(rows, dm, kk, rng)
	assign, size := s.assign, s.size[:kk]
	centers, prevCenters := s.centers[:kk*s.nc], s.prevCenters[:kk*s.nc]
	clear(assign)
	s.converged = false
	clean := false
	for iter := 0; iter < kmeansMaxIter; iter++ {
		s.passes = iter + 1
		clear(size)
		changed, finite := false, true
		for i, row := range rows {
			best, d := s.nearestCenter(row, kk)
			s.dist[i] = d
			finite = finite && d < math.Inf(1)
			size[best]++
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !slices.Contains(size, 0) {
			if !changed {
				s.converged = clean && finite
				break
			}
			s.centroids(rows, assign, kk)
			clean = true
			continue
		}
		afterReseed := iter > 0 && !clean
		clean = false
		// Recompute centroids in c order, each against the centers
		// already updated this pass; re-seed empty clusters on the
		// farthest point from its center to keep k clusters alive. The
		// point comes from a cluster with at least two members, so the
		// move never empties another cluster (one always exists, as
		// kk <= len(rows)); size stays current across the moves.
		for c := 0; c < kk; c++ {
			if centroidOf(s.center(c), rows, assign, c) > 0 {
				continue
			}
			far, farD := -1, -1.0
			for i, row := range rows {
				if size[assign[i]] < 2 {
					continue
				}
				if d := stats.Euclidean(row, s.center(assign[i])); far < 0 || d > farD {
					far, farD = i, d
				}
			}
			size[assign[far]]--
			size[c]++
			assign[far] = c
			centroidOf(s.center(c), rows, assign, c)
		}
		if afterReseed && slices.Equal(assign, s.prevAssign) && slices.EqualFunc(centers, prevCenters, sameBits) {
			break
		}
		copy(s.prevAssign, assign)
		copy(prevCenters, centers)
	}
	return assign
}

// sameBits reports whether x and y are the same float64, bit for bit.
func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// nearestCenter returns the center nearest to row by stats.Euclidean, the
// lowest index on a tie, and its distance: the index a scan over
// c = 0..kk-1 keeps when it takes d_c = stats.Euclidean(row, center c) only
// if d_c < bestD, from bestD = +Inf, and that bestD.
//
// It gives that scan's answer without taking every square root. Candidate
// c accumulates its squared distance S_c in column order, the sum
// stats.Euclidean takes the root of, and stops as soon as the partial sum
// P reaches bestSq, the full sum of the best candidate so far (bestD =
// √bestSq). That is exact. Each term is a square, non-negative or NaN.
// Adding a non-negative term never lowers a float sum, since rounding is
// monotone and P itself is a float: fl(P + t) ≥ P. So S_c ≥ P ≥ bestSq
// unless a later term is NaN, and then S_c is NaN. In the first case √S_c ≥
// √bestSq = bestD, because the correctly rounded square root is monotone;
// in the second √S_c is NaN. Either way the scan's d_c < bestD fails, and
// the stopped candidate is one the scan rejects. A partial sum of +Inf
// stops at once (+Inf ≥ bestSq holds for any bestSq, +Inf included), and
// the scan rejects it too: its d_c is +Inf or NaN, never below bestD. A NaN
// partial sum never stops (every comparison with NaN is false); it reaches
// the end, √NaN = NaN, and the strict test rejects it as the scan does.
// bestSq is never NaN, as only a candidate that passed d_c < bestD sets it.
// A candidate that runs to the end has the scan's S_c and d_c = √S_c in
// bits and goes through the scan's own strict test, so two candidates whose
// sums differ by an ulp but whose roots are equal keep the lower index.
func (s *kmeansScratch) nearestCenter(row []float64, kk int) (int, float64) {
	best, bestD, bestSq := 0, math.Inf(1), math.Inf(1)
centers:
	for c := 0; c < kk; c++ {
		cen := s.center(c)[:len(row)]
		sq := 0.0
		for j, v := range row {
			d := v - cen[j]
			sq += d * d
			if sq >= bestSq {
				continue centers
			}
		}
		if d := math.Sqrt(sq); d < bestD {
			best, bestD, bestSq = c, d, sq
		}
	}
	return best, bestD
}

// centroids writes every cluster's mean into its center in one pass over
// the rows, for an assignment whose size counts are all non-zero. Each
// center starts at zero and takes its members' rows in ascending i, as
// centroidOf scans them, then is divided by its size: it has centroidOf's
// bits.
func (s *kmeansScratch) centroids(rows [][]float64, assign Assignment, kk int) {
	clear(s.centers[:kk*s.nc])
	for i, row := range rows {
		cen := s.center(assign[i])[:len(row)]
		for j, v := range row {
			cen[j] += v
		}
	}
	for c, cnt := range s.size[:kk] {
		cen := s.center(c)
		for j := range cen {
			cen[j] /= float64(cnt)
		}
	}
}

// withinClusterSS returns the total within-cluster sum of squared
// distances to centroids, the K-means objective, summed cluster by cluster
// and within a cluster in ascending i.
//
// When a is the scratch's own assignment and the once call that returned
// it converged, the sum reuses that pass's distances, in bits. Every
// cluster 0..kk-1 is non-empty, so they are a.K()'s clusters. Center c is
// centroidOf(a, c) in bits, so the centroid computed here would equal it,
// and row i's distance to it, stats.Euclidean(rows[i], center), is the √S
// nearestCenter took for the candidate it kept: that candidate's sum ran
// to the end, over the same columns in the same order. The squares are
// then added in the same cluster-then-ascending-i order.
func (s *kmeansScratch) withinClusterSS(rows [][]float64, a Assignment) float64 {
	total := 0.0
	if s.converged && len(a) > 0 && &a[0] == &s.assign[0] {
		for c := range len(s.size) {
			for i, ci := range a {
				if ci == c {
					total += s.dist[i] * s.dist[i]
				}
			}
		}
		return total
	}
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
// centers are exact row copies, so every seeding distance is a lookup in
// dm, the rows' distance matrix.
//
// Each row's distance to its nearest chosen center is kept in minD and
// lowered by the newest center only, O(n) per center. That is the minimum
// a scan over every chosen center in idx order would take, in bits: the
// scan keeps d only when d < min, from +Inf, and minD is the same scan
// resumed where the previous round left it.
func (s *kmeansScratch) plusPlusSeed(rows [][]float64, dm *DistMatrix, kk int, rng *xrand.Rand) {
	idx := append(s.idx[:0], rng.Intn(len(rows)))
	minD, d2 := s.minD, s.d2
	for i := range minD {
		minD[i] = math.Inf(1)
	}
	for len(idx) < kk {
		last := idx[len(idx)-1]
		total := 0.0
		for i := range rows {
			if d := dm.At(i, last); d < minD[i] {
				minD[i] = d
			}
			d2[i] = minD[i] * minD[i]
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
