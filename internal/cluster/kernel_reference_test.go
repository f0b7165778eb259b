package cluster

import (
	"fmt"
	"math"
	"reflect"
	"testing"

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
