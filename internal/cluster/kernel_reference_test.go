package cluster

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"mobilebench/internal/stats"
	"mobilebench/internal/xrand"
)

// refSwapFrom is the SWAP phase as it was before the nearest-medoid cache:
// every candidate swap recomputes the whole pamCost. swapFrom must follow
// it medoid for medoid.
func refSwapFrom(d *DistMatrix, medoids []int) []int {
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

func isMedoid(medoids []int, i int) bool {
	for _, m := range medoids {
		if m == i {
			return true
		}
	}
	return false
}

// refPamBuild is the BUILD phase as it was before the cache: each
// candidate's cost is a full pamCost over the chosen medoids plus it.
func refPamBuild(d *DistMatrix, k int) []int {
	n := d.N()
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

// refPAMCluster is PAM.cluster over the reference phases.
func refPAMCluster(d *DistMatrix, k int) Assignment {
	n := d.N()
	best := refSwapFrom(d, refPamBuild(d, k))
	bestCost := pamCost(d, best)
	for r := 0; r < pamRestarts; r++ {
		rng := xrand.New(pamSeed).Split(uint64(r) + 1)
		m := refSwapFrom(d, randomMedoids(make([]int, n), k, rng))
		if c := pamCost(d, m); c < bestCost-1e-12 {
			best, bestCost = m, c
		}
	}
	return assignToMedoids(d, best).Canonical()
}

// refDendrogram is the Ward agglomeration as it was before nodes cached
// their centroids: linkDist recomputes both centroids for every pair at
// every step.
func refDendrogram(rows [][]float64) *Dendrogram {
	n := len(rows)
	type node struct {
		id      int
		members []int
		active  bool
	}
	nodes := make([]node, 0, 2*n-1)
	for i := 0; i < n; i++ {
		nodes = append(nodes, node{id: i, members: []int{i}, active: true})
	}
	linkDist := func(a, b []int) float64 {
		ca := centroid(rows, a)
		cb := centroid(rows, b)
		na, nb := float64(len(a)), float64(len(b))
		d := 0.0
		for j := range ca {
			diff := ca[j] - cb[j]
			d += diff * diff
		}
		return math.Sqrt(2 * na * nb / (na + nb) * d)
	}
	den := &Dendrogram{N: n}
	for step := 0; step < n-1; step++ {
		bi, bj, bd := -1, -1, math.Inf(1)
		for i := 0; i < len(nodes); i++ {
			if !nodes[i].active {
				continue
			}
			for j := i + 1; j < len(nodes); j++ {
				if !nodes[j].active {
					continue
				}
				if d := linkDist(nodes[i].members, nodes[j].members); d < bd {
					bi, bj, bd = i, j, d
				}
			}
		}
		merged := node{
			id:      n + step,
			members: append(append([]int(nil), nodes[bi].members...), nodes[bj].members...),
			active:  true,
		}
		nodes[bi].active = false
		nodes[bj].active = false
		nodes = append(nodes, merged)
		den.Merges = append(den.Merges, Merge{A: nodes[bi].id, B: nodes[bj].id, Height: bd})
	}
	return den
}

// tiedMatrix builds a symmetric n×n distance matrix with a zero diagonal
// from four irrational values, so many distances tie and sums round: a
// summation order that differed from pamCost's would show in the bits. Every fourth point copies
// an earlier point's distances (a duplicate observation, at distance 0
// from it), and with nanEvery > 0 about one off-diagonal pair in nanEvery
// is NaN.
func tiedMatrix(rng *xrand.Rand, n, nanEvery int) *DistMatrix {
	m := &DistMatrix{n: n, d: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := math.Sqrt(float64(1 + rng.Intn(4)))
			if nanEvery > 0 && rng.Intn(nanEvery) == 0 {
				v = math.NaN()
			}
			m.d[i*n+j], m.d[j*n+i] = v, v
		}
	}
	for dup := 3; dup < n; dup += 4 {
		src := rng.Intn(dup)
		for j := 0; j < n; j++ {
			v := m.d[src*n+j]
			if j == dup {
				v = 0
			}
			m.d[dup*n+j], m.d[j*n+dup] = v, v
		}
	}
	return m
}

// TestPAMTrialCostsMatchPamCost checks the cache's invariant directly:
// every trial cost SWAP and BUILD read from it equals, in bits, the
// pamCost of the trial medoid set, on tie-heavy matrices with and without
// NaN distances.
func TestPAMTrialCostsMatchPamCost(t *testing.T) {
	rng := xrand.New(19)
	for n := 2; n <= 16; n++ {
		s := newPAMScratch(n)
		for _, nanEvery := range []int{0, 5} {
			d := tiedMatrix(rng, n, nanEvery)
			for k := 1; k < n; k++ {
				medoids := randomMedoids(make([]int, n), k, rng)
				s.cache(d, medoids)
				trial := make([]int, k)
				for mi := range medoids {
					s.swapOut(mi)
					for o := 0; o < n; o++ {
						if isMedoid(medoids, o) {
							continue
						}
						copy(trial, medoids)
						trial[mi] = o
						if g, w := minSum(d.row(o), s.rest), pamCost(d, trial); math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("n=%d k=%d medoids %v: swap %d→%d costs %v, pamCost = %v", n, k, medoids, mi, o, g, w)
						}
					}
				}
				for c := 0; c < n; c++ {
					if isMedoid(medoids, c) {
						continue
					}
					if g, w := minSum(d.row(c), s.d1), pamCost(d, append(append([]int(nil), medoids...), c)); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("n=%d k=%d medoids %v: adding %d costs %v, pamCost = %v", n, k, medoids, c, g, w)
					}
				}
			}
		}
	}
}

// TestPAMKernelsMatchReference pins the cached SWAP and BUILD phases to
// the full-recompute reference: for every k in 1..n-1, on tie-heavy
// matrices with duplicate observations, the medoid sequences are equal and
// their pamCost values are equal in bits. SWAP also runs on matrices with
// sporadic NaN distances, from random starts. One scratch serves every
// call, as it serves a cluster call's starts.
func TestPAMKernelsMatchReference(t *testing.T) {
	rng := xrand.New(20)
	for n := 2; n <= 24; n++ {
		s := newPAMScratch(n)
		for trial := 0; trial < 3; trial++ {
			clean := tiedMatrix(rng, n, 0)
			withNaN := tiedMatrix(rng, n, 7)
			for k := 1; k < n; k++ {
				name := fmt.Sprintf("n=%d/trial=%d/k=%d", n, trial, k)
				want := refPamBuild(clean, k)
				got := pamBuild(clean, k, s)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: pamBuild = %v, want %v", name, got, want)
				}
				checkSwap(t, name+"/build", clean, want, s)
				checkSwap(t, name+"/random", clean, randomMedoids(make([]int, n), k, rng), s)
				checkSwap(t, name+"/nan", withNaN, randomMedoids(make([]int, n), k, rng), s)
			}
		}
	}
}

func checkSwap(t *testing.T, name string, d *DistMatrix, start []int, s *pamScratch) {
	t.Helper()
	want := refSwapFrom(d, start)
	got := swapFrom(d, append([]int(nil), start...), s)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: swapFrom(%v) = %v, want %v", name, start, got, want)
	}
	if g, w := math.Float64bits(pamCost(d, got)), math.Float64bits(pamCost(d, want)); g != w {
		t.Fatalf("%s: pamCost bits %#x, want %#x", name, g, w)
	}
}

// TestPAMClusterMatchesReference runs whole PAM clusterings — BUILD, the
// seeded restarts and the final cost comparison over one shared scratch —
// against the reference phases on rows with duplicate observations.
func TestPAMClusterMatchesReference(t *testing.T) {
	rng := xrand.New(21)
	for n := 2; n <= 20; n++ {
		rows := tiedRows(rng, n, 3)
		d := NewDistMatrix(rows)
		for k := 1; k <= n; k++ {
			got, err := NewPAM().ClusterDist(rows, d, k)
			if err != nil {
				t.Fatal(err)
			}
			if want := refPAMCluster(d, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d k=%d: PAM = %v, want %v", n, k, got, want)
			}
		}
	}
}

// tiedRows returns n rows of nc small-integer features in which every
// third row duplicates an earlier one, so distances and Ward link
// distances tie.
func tiedRows(rng *xrand.Rand, n, nc int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		if i%3 == 2 {
			rows[i] = append([]float64(nil), rows[rng.Intn(i)]...)
			continue
		}
		r := make([]float64, nc)
		for j := range r {
			r[j] = float64(rng.Intn(3))
		}
		rows[i] = r
	}
	return rows
}

// TestWardMatchesReference pins the cached-centroid dendrogram to the
// per-pair recomputation: every merge's (A, B) and its Height in bits, on
// tie-heavy integer rows with duplicates and on fractional rows.
func TestWardMatchesReference(t *testing.T) {
	rng := xrand.New(22)
	for n := 1; n <= 24; n++ {
		for trial := 0; trial < 4; trial++ {
			rows := tiedRows(rng, n, 1+trial)
			if trial == 3 {
				for _, r := range rows {
					for j := range r {
						r[j] += rng.Float64() / 3
					}
				}
			}
			got, err := NewHierarchical().Dendrogram(rows)
			if err != nil {
				t.Fatal(err)
			}
			want := refDendrogram(rows)
			if len(got.Merges) != len(want.Merges) {
				t.Fatalf("n=%d trial=%d: %d merges, want %d", n, trial, len(got.Merges), len(want.Merges))
			}
			for i, g := range got.Merges {
				w := want.Merges[i]
				if g.A != w.A || g.B != w.B || math.Float64bits(g.Height) != math.Float64bits(w.Height) {
					t.Fatalf("n=%d trial=%d: merge %d = %+v, want %+v", n, trial, i, g, w)
				}
			}
		}
	}
}

// proportionNonOverlap is one removed column's APN term computed on its
// own, building both assignments' masks: the reference for
// stabilityColumn's apn.
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

// adColumn is one removed column's AD term computed on its own, building
// the reduced assignment's masks again: the reference for
// stabilityColumn's ad.
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

// TestStabilityColumnMatchesReference pins the one-pass stability column
// to the two per-measure passes, in bits, on random assignment pairs with
// uneven cluster counts and clusters left empty by the numbering.
func TestStabilityColumnMatchesReference(t *testing.T) {
	rng := xrand.New(24)
	for n := 1; n <= 20; n++ {
		d := NewDistMatrix(fracRows(rng, n, 3))
		for trial := 0; trial < 20; trial++ {
			full, reduced := make(Assignment, n), make(Assignment, n)
			kf, kr := 1+rng.Intn(n), 1+rng.Intn(n)
			for i := range full {
				full[i], reduced[i] = rng.Intn(kf), rng.Intn(kr)
			}
			fullMasks := clusterMasks(full)
			apn, ad := stabilityColumn(d, full, fullMasks, reduced, clusterMasks(reduced))
			if w := proportionNonOverlap(full, reduced); math.Float64bits(apn) != math.Float64bits(w) {
				t.Fatalf("n=%d %v/%v: apn %v, want %v", n, full, reduced, apn, w)
			}
			if w := adColumn(d, full, fullMasks, reduced); math.Float64bits(ad) != math.Float64bits(w) {
				t.Fatalf("n=%d %v/%v: ad %v, want %v", n, full, reduced, ad, w)
			}
		}
	}
}

// fracRows is tiedRows with a random fraction added to every feature, so
// sums round and a changed summation order shows in the bits.
func fracRows(rng *xrand.Rand, n, nc int) [][]float64 {
	rows := tiedRows(rng, n, nc)
	for _, r := range rows {
		for j := range r {
			r[j] += rng.Float64() / 3
		}
	}
	return rows
}

// refKMeansOnce is one K-means restart as it was before the scratch: the
// seeding, every centroid and every member list are allocated afresh.
// reseeds counts the empty clusters it re-seeded.
func refKMeansOnce(rows [][]float64, dm *DistMatrix, kk int, rng *xrand.Rand, reseeds *int) Assignment {
	centers := refPlusPlusSeed(rows, dm, kk, rng)
	assign := make(Assignment, len(rows))
	for iter := 0; iter < kmeansMaxIter; iter++ {
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
				*reseeds++
			}
			centers[c] = centroid(rows, members)
		}
		if !changed {
			break
		}
	}
	return assign
}

func refPlusPlusSeed(rows [][]float64, dm *DistMatrix, kk int, rng *xrand.Rand) [][]float64 {
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

// refWithinClusterSS is the K-means objective over a.Members and a fresh
// centroid per cluster.
func refWithinClusterSS(rows [][]float64, a Assignment) float64 {
	total := 0.0
	for c := 0; c < a.K(); c++ {
		members := a.Members(c)
		if len(members) == 0 {
			continue
		}
		cen := centroid(rows, members)
		for _, m := range members {
			d := stats.Euclidean(rows[m], cen)
			total += d * d
		}
	}
	return total
}

// refKMeans is KMeans.cluster as it was before the scratch.
func refKMeans(rows [][]float64, dm *DistMatrix, kk int) Assignment {
	var best Assignment
	bestSS := math.Inf(1)
	var reseeds int
	for r := 0; r < kmeansRestarts; r++ {
		rng := xrand.New(kmeansSeed).Split(uint64(r) + 1)
		a := refKMeansOnce(rows, dm, kk, rng, &reseeds)
		if ss := refWithinClusterSS(rows, a); ss < bestSS {
			bestSS = ss
			best = a
		}
	}
	return best.Canonical()
}

// TestKMeansMatchesReference pins the scratch K-means to the allocating
// reference restart by restart: the assignment, the within-cluster sum of
// squares in bits and the RNG state afterwards, with and without the
// distance matrix, for every k, on tied integer rows with duplicates, on
// fractional rows where the centroid's summation order shows in the bits,
// and on heavily duplicated rows that force empty-cluster re-seeds. One
// scratch serves every restart, as it serves a cluster call's.
func TestKMeansMatchesReference(t *testing.T) {
	rng := xrand.New(25)
	var reseeds int
	for n := 1; n <= 12; n++ {
		for _, in := range []struct {
			name string
			rows [][]float64
		}{
			{"tied", tiedRows(rng, n, 3)},
			{"frac", fracRows(rng, n, 4)},
			{"dups", dupRows(rng, n)},
		} {
			name, rows := in.name, in.rows
			for k := 1; k <= n; k++ {
				for _, dm := range []*DistMatrix{nil, NewDistMatrix(rows)} {
					tag := fmt.Sprintf("%s/n=%d/k=%d/dm=%t", name, n, k, dm != nil)
					s := newKMeansScratch(n, len(rows[0]), k)
					for r := 0; r < kmeansRestarts; r++ {
						gotRNG := xrand.New(kmeansSeed).Split(uint64(r) + 1)
						wantRNG := xrand.New(kmeansSeed).Split(uint64(r) + 1)
						got := s.once(rows, dm, k, gotRNG)
						want := refKMeansOnce(rows, dm, k, wantRNG, &reseeds)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s restart %d: assignment %v, want %v", tag, r, got, want)
						}
						if g, w := s.withinClusterSS(rows, got), refWithinClusterSS(rows, want); math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%s restart %d: WCSS %v, want %v", tag, r, g, w)
						}
						if g, w := gotRNG.Uint64(), wantRNG.Uint64(); g != w {
							t.Fatalf("%s restart %d: RNG consumption differs", tag, r)
						}
					}
					var got Assignment
					var err error
					if dm == nil {
						got, err = NewKMeans().Cluster(rows, k)
					} else {
						got, err = NewKMeans().ClusterDist(rows, dm, k)
					}
					if err != nil {
						t.Fatal(err)
					}
					if want := refKMeans(rows, dm, k); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: KMeans = %v, want %v", tag, got, want)
					}
				}
			}
		}
	}
	if reseeds == 0 {
		t.Fatal("no input re-seeded an empty cluster")
	}
}

// dupRows returns n rows drawn from at most three distinct fractional
// points, so k above three leaves clusters empty and forces re-seeds.
func dupRows(rng *xrand.Rand, n int) [][]float64 {
	pts := fracRows(rng, 3, 2)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = append([]float64(nil), pts[rng.Intn(len(pts))]...)
	}
	return rows
}

// TestPAMScreenIsConservative checks the SWAP screen against the exact
// acceptance test it stands in for. For random medoid sets it computes
// every trial's exact cost c and, for thresholds thr packed around
// c − cost, asserts that the screen never skips a trial the exact test
// c − cost < thr accepts. The screen must be on exactly when cost and
// every d2 are finite. The inputs cover tied matrices with NaN distances,
// distances near 1e300 and subnormal ones, and matrices whose entries span
// 2⁻²⁰..2²⁰, on which the screen's estimate and c differ in bits often
// enough that some accepted trials would be skipped with no margin — the
// test insists such trials occur, so the margin carries the result.
func TestPAMScreenIsConservative(t *testing.T) {
	rng := xrand.New(26)
	var differ, skipped, carried int
	check := func(name string, d *DistMatrix, k int, cost float64, medoids []int) {
		n := d.N()
		s := newPAMScratch(n)
		s.corr = make([]float64, k*n)
		for _, m := range medoids {
			s.medoid[m] = true
		}
		s.cache(d, medoids)
		finite := !math.IsNaN(cost) && !math.IsInf(cost, 0)
		for _, v := range s.d2 {
			finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
		}
		if on := s.screen(d, k, cost); on != finite {
			t.Fatalf("%s: screen on = %t with cost %v and d2 %v", name, on, cost, s.d2)
		}
		if !finite {
			return
		}
		margin := screenMargin(n)
		for mi := range medoids {
			s.swapOut(mi)
			for o := 0; o < n; o++ {
				if s.medoid[o] {
					continue
				}
				c := minSum(d.row(o), s.rest)
				a := s.shared[o] + s.corr[mi*n+o]
				if math.Float64bits(a) != math.Float64bits(c) {
					differ++
				}
				delta := c - cost
				for _, thr := range []float64{
					math.Nextafter(delta, math.Inf(1)),
					math.Nextafter(math.Nextafter(delta, math.Inf(1)), math.Inf(1)),
					delta, delta - 1e-12, delta + 1e-12, -1e-12, 0,
					math.Nextafter(a-cost, math.Inf(-1)),
				} {
					accept := c-cost < thr
					skip := s.screenedOut(mi, o, cost, margin, thr)
					if skip {
						skipped++
					}
					if accept && skip {
						t.Fatalf("%s: trial %d→%d (a %v, c %v, cost %v) accepted at thr %v but screened out",
							name, mi, o, a, c, cost, thr)
					}
					if accept && a-cost > thr {
						carried++
					}
				}
			}
		}
	}
	scaled := func(d *DistMatrix, f float64) *DistMatrix {
		out := &DistMatrix{n: d.n, d: make([]float64, len(d.d))}
		for i, v := range d.d {
			out.d[i] = v * f
		}
		return out
	}
	for n := 2; n <= 24; n++ {
		for trial := 0; trial < 4; trial++ {
			spread := &DistMatrix{n: n, d: make([]float64, n*n)}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					v := math.Ldexp(1+rng.Float64(), rng.Intn(41)-20)
					spread.d[i*n+j], spread.d[j*n+i] = v, v
				}
			}
			tied := tiedMatrix(rng, n, 0)
			for _, in := range []struct {
				name string
				d    *DistMatrix
			}{
				{"tied", tied},
				{"nan", tiedMatrix(rng, n, 5)},
				{"huge", scaled(tied, 1e300)},
				{"subnormal", scaled(tied, 1e-310)},
				{"spread", spread},
			} {
				name, d := in.name, in.d
				for k := 1; k < n; k++ {
					medoids := randomMedoids(make([]int, n), k, rng)
					cost := pamCost(d, medoids)
					for _, c := range []float64{cost, cost * (1 + 0x1p-40), math.NaN(), math.Inf(1)} {
						check(fmt.Sprintf("%s/n=%d/k=%d/cost=%v", name, n, k, c), d, k, c, medoids)
					}
				}
			}
		}
	}
	if differ == 0 || skipped == 0 || carried == 0 {
		t.Fatalf("inputs too easy: %d estimates differ in bits, %d trials screened out, %d carried by the margin", differ, skipped, carried)
	}
	t.Logf("%d estimates differ in bits from c, %d screened out, %d accepted trials the margin kept", differ, skipped, carried)
}

// TestNonFiniteFeaturesRejected checks that every algorithm, the
// dendrogram and the sweep refuse a NaN or infinite feature with an error,
// instead of returning an empty assignment or panicking.
func TestNonFiniteFeaturesRejected(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rows := blobs()
		rows[5][1] = bad
		for _, alg := range algorithms() {
			a, err := alg.Cluster(rows, 3)
			if err == nil || !strings.Contains(err.Error(), "finite") {
				t.Errorf("%s.Cluster with feature %v = %v, %v; want a non-finite error", alg.Name(), bad, a, err)
			}
			a, err = clusterDist(alg, rows, NewDistMatrix(rows), 3)
			if err == nil || !strings.Contains(err.Error(), "finite") {
				t.Errorf("%s.ClusterDist with feature %v = %v, %v; want a non-finite error", alg.Name(), bad, a, err)
			}
			if _, _, err := SweepContext(context.Background(), []Algorithm{alg}, rows, 2, 4, 2); err == nil || !strings.Contains(err.Error(), "finite") {
				t.Errorf("%s sweep with feature %v: err = %v, want a non-finite error", alg.Name(), bad, err)
			}
		}
		if _, err := NewHierarchical().Dendrogram(rows); err == nil || !strings.Contains(err.Error(), "finite") {
			t.Errorf("Dendrogram with feature %v: err = %v, want a non-finite error", bad, err)
		}
		if _, _, err := SweepContext(context.Background(), algorithms(), rows, 2, 4, 1); err == nil || !strings.Contains(err.Error(), "finite") {
			t.Errorf("sweep with feature %v: err = %v, want a non-finite error", bad, err)
		}
	}
}

// TestKMeansOverflowIsAnError checks that finite features whose squared
// distances overflow, so that no restart has a finite within-cluster sum
// of squares, give an error instead of an empty assignment.
func TestKMeansOverflowIsAnError(t *testing.T) {
	rows := blobs()
	for _, r := range rows {
		for j := range r {
			r[j] = (r[j] + 1) * 1e200
		}
	}
	if a, err := NewKMeans().Cluster(rows, 3); err == nil {
		t.Fatalf("KMeans on overflowing features = %v, nil error", a)
	}
}

// TestPAMUpdateMatchesCache checks SWAP's incremental bookkeeping against
// a fresh cache pass: after every swap of a random walk over medoid sets,
// on tie-heavy matrices with duplicate observations and with sporadic, then
// every, off-diagonal distance NaN, update's nearest, d1 and d2 equal
// cache's, d1 and d2 in bits. Each of update's paths must run: a nearest
// slot kept, a merge and a rescan.
func TestPAMUpdateMatchesCache(t *testing.T) {
	rng := xrand.New(27)
	var kept, merged, rescanned int
	for n := 2; n <= 16; n++ {
		s, fresh := newPAMScratch(n), newPAMScratch(n)
		for _, nanEvery := range []int{0, 4, 1} {
			d := tiedMatrix(rng, n, nanEvery)
			for k := 1; k < n; k++ {
				medoids := append([]int(nil), randomMedoids(make([]int, n), k, rng)...)
				s.cache(d, medoids)
				for swap := 0; swap < 12; swap++ {
					slot, o := rng.Intn(k), rng.Intn(n)
					if isMedoid(medoids, o) {
						continue
					}
					old := medoids[slot]
					for i, near := range s.nearest {
						vOld, v := d.At(i, old), d.At(i, o)
						switch {
						case near == slot && v < s.d2[i]:
							kept++
						case near == slot || !(vOld > s.d2[i]) && !(v <= s.d2[i]):
							rescanned++
						default:
							merged++
						}
					}
					medoids[slot] = o
					s.update(d, medoids, slot, old)
					fresh.cache(d, medoids)
					for i := 0; i < n; i++ {
						if s.nearest[i] != fresh.nearest[i] ||
							math.Float64bits(s.d1[i]) != math.Float64bits(fresh.d1[i]) ||
							math.Float64bits(s.d2[i]) != math.Float64bits(fresh.d2[i]) {
							t.Fatalf("n=%d nan=1/%d k=%d medoids %v after %d→%d in slot %d: point %d has (%d, %v, %v), cache gives (%d, %v, %v)",
								n, nanEvery, k, medoids, old, o, slot, i,
								s.nearest[i], s.d1[i], s.d2[i], fresh.nearest[i], fresh.d1[i], fresh.d2[i])
						}
					}
				}
			}
		}
	}
	if kept == 0 || merged == 0 || rescanned == 0 {
		t.Fatalf("kept %d, merged %d and rescanned %d points; every path must run", kept, merged, rescanned)
	}
}

// TestKMeansNearestCenterTieOnRoot checks the assignment step's tie rule
// where squared distances differ but their square roots do not: center 0
// is 1 + 2⁻⁵² away squared and center 1 is 1 away, one ulp closer, yet both
// roots round to 1, so the scan over roots keeps the lower index. A pruned
// pass that compared squared distances would pick center 1.
func TestKMeansNearestCenterTieOnRoot(t *testing.T) {
	row := []float64{1, 0}
	far, near := []float64{0, 0x1p-26}, []float64{0, 0}
	if d0, d1 := stats.Euclidean(row, far), stats.Euclidean(row, near); d0 != d1 || d0 != 1 {
		t.Fatalf("premise: roots %v and %v, want both 1", d0, d1)
	}
	for _, tc := range []struct {
		centers [][]float64
		want    int
	}{
		{[][]float64{far, near}, 0},
		{[][]float64{near, far}, 0},
		{[][]float64{{5, 5}, far, near}, 1},
	} {
		s := newKMeansScratch(1, len(row), len(tc.centers))
		for c, cen := range tc.centers {
			copy(s.center(c), cen)
		}
		if got, d := s.nearestCenter(row, len(tc.centers)); got != tc.want || d != 1 {
			t.Errorf("centers %v: nearest %d at %v, want %d at 1", tc.centers, got, d, tc.want)
		}
	}
}

// TestKMeansUnchangedFirstPassReseeds covers the one unchanged pass that
// must not end Lloyd's loop: on identical rows every center ties, the first
// pass puts every row in cluster 0 and so leaves the zeroed assignment
// unchanged, and the empty clusters must still be re-seeded, restart by
// restart, as the reference does.
func TestKMeansUnchangedFirstPassReseeds(t *testing.T) {
	for n := 2; n <= 6; n++ {
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{0.25, 3}
		}
		for k := 2; k <= n; k++ {
			s := newKMeansScratch(n, 2, k)
			var reseeds int
			for r := 0; r < kmeansRestarts; r++ {
				got := s.once(rows, nil, k, xrand.New(kmeansSeed).Split(uint64(r)+1))
				want := refKMeansOnce(rows, nil, k, xrand.New(kmeansSeed).Split(uint64(r)+1), &reseeds)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d k=%d restart %d: assignment %v, want %v", n, k, r, got, want)
				}
			}
			got, err := NewKMeans().Cluster(rows, k)
			if err != nil {
				t.Fatal(err)
			}
			if want := refKMeans(rows, nil, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d k=%d: KMeans = %v, want %v", n, k, got, want)
			}
		}
	}
}
