package cluster

import (
	"testing"
	"testing/quick"
)

// blobs returns three well-separated synthetic groups in 2D:
// indices 0-3 near the origin, 4-7 near (10,10), 8-11 near (20,20).
// The groups are separable on either coordinate alone, which stability
// validation (APN/AD) relies on.
func blobs() [][]float64 {
	return [][]float64{
		{0, 0}, {0.5, 0}, {0, 0.5}, {0.4, 0.4},
		{10, 10}, {10.5, 10}, {10, 10.5}, {10.4, 10.4},
		{20, 20}, {20.5, 20}, {20, 20.5}, {20.4, 20.4},
	}
}

// sameBlobGrouping reports whether the assignment recovers the three blobs.
func sameBlobGrouping(a Assignment) bool {
	want := Assignment{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2}
	return SameGrouping(a, want)
}

func algorithms() []Algorithm {
	return []Algorithm{NewKMeans(), NewPAM(), NewHierarchical()}
}

func TestAllAlgorithmsRecoverBlobs(t *testing.T) {
	for _, alg := range algorithms() {
		a, err := alg.Cluster(blobs(), 3)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if !sameBlobGrouping(a) {
			t.Errorf("%s failed to recover obvious blobs: %v", alg.Name(), a)
		}
	}
}

func TestValidation(t *testing.T) {
	for _, alg := range algorithms() {
		if _, err := alg.Cluster(blobs(), 0); err == nil {
			t.Errorf("%s accepted k=0", alg.Name())
		}
		if _, err := alg.Cluster(blobs(), 13); err == nil {
			t.Errorf("%s accepted k > n", alg.Name())
		}
		if _, err := alg.Cluster([][]float64{{1, 2}, {1}}, 1); err == nil {
			t.Errorf("%s accepted ragged rows", alg.Name())
		}
		if _, err := alg.Cluster([][]float64{{}, {}}, 1); err == nil {
			t.Errorf("%s accepted empty feature vectors", alg.Name())
		}
	}
}

// TestNonFiniteDistances: finite features far enough apart overflow
// their pairwise distance (or a Ward linkage distance) to +Inf. Every
// algorithm must answer with an error, not an index panic.
func TestNonFiniteDistances(t *testing.T) {
	cases := []struct {
		name string
		rows [][]float64
		// fail names the algorithms that must reject the rows; the rest
		// must cluster them.
		fail map[string]bool
	}{
		{
			name: "pairwise distance overflows",
			rows: [][]float64{{-1e200}, {0}, {1e200}},
			fail: map[string]bool{"kmeans": true, "pam": true, "hierarchical-ward": true},
		},
		{
			// Every pairwise distance is finite, but Ward's size weight
			// pushes the last link distance past MaxFloat64.
			name: "ward linkage overflows",
			rows: [][]float64{{0}, {1.2e154}, {1.2e154}},
			fail: map[string]bool{"hierarchical-ward": true},
		},
	}
	for _, tc := range cases {
		for _, alg := range algorithms() {
			a, err := alg.Cluster(tc.rows, 2)
			if tc.fail[alg.Name()] {
				if err == nil {
					t.Errorf("%s, %s: got %v, want an error", tc.name, alg.Name(), a)
				}
			} else if err != nil {
				t.Errorf("%s, %s: %v", tc.name, alg.Name(), err)
			}
		}
	}
}

// TestDuplicateRowsKeepK asserts every algorithm returns exactly k
// clusters when rows coincide: three identical rows at k = 3, and a
// duplicated pair beside a distinct row at k = 2 and 3.
func TestDuplicateRowsKeepK(t *testing.T) {
	cases := []struct {
		name string
		rows [][]float64
		ks   []int
	}{
		{"identical rows", [][]float64{{1, 2}, {1, 2}, {1, 2}}, []int{1, 2, 3}},
		{"duplicated pair", [][]float64{{0, 0}, {0, 0}, {5, 1}}, []int{2, 3}},
	}
	for _, tc := range cases {
		for _, k := range tc.ks {
			for _, alg := range algorithms() {
				a, err := alg.Cluster(tc.rows, k)
				if err != nil {
					t.Fatalf("%s, k=%d, %s: %v", tc.name, k, alg.Name(), err)
				}
				if a.K() != k {
					t.Errorf("%s, k=%d, %s: %v has %d clusters", tc.name, k, alg.Name(), a, a.K())
				}
			}
		}
	}
}

func TestKEqualsN(t *testing.T) {
	rows := blobs()
	for _, alg := range algorithms() {
		a, err := alg.Cluster(rows, len(rows))
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if a.K() != len(rows) {
			t.Errorf("%s: k=n should give singletons, got %d clusters", alg.Name(), a.K())
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, alg := range algorithms() {
		a, _ := alg.Cluster(blobs(), 3)
		b, _ := alg.Cluster(blobs(), 3)
		if !SameGrouping(a, b) {
			t.Errorf("%s is not deterministic", alg.Name())
		}
	}
}

func TestAssignmentHelpers(t *testing.T) {
	a := Assignment{1, 0, 1, 2}
	if a.K() != 3 {
		t.Fatalf("K = %d", a.K())
	}
	if m := a.Members(1); len(m) != 2 || m[0] != 0 || m[1] != 2 {
		t.Fatalf("members = %v", m)
	}
	sizes := a.Sizes()
	if sizes[0] != 1 || sizes[1] != 2 || sizes[2] != 1 {
		t.Fatalf("sizes = %v", sizes)
	}
	c := a.Canonical()
	if c[0] != 0 || c[1] != 1 || c[2] != 0 || c[3] != 2 {
		t.Fatalf("canonical = %v", c)
	}
}

func TestSameGrouping(t *testing.T) {
	if !SameGrouping(Assignment{0, 0, 1}, Assignment{2, 2, 0}) {
		t.Fatal("relabelled identical partitions not equal")
	}
	if SameGrouping(Assignment{0, 0, 1}, Assignment{0, 1, 1}) {
		t.Fatal("different partitions reported equal")
	}
	if SameGrouping(Assignment{0}, Assignment{0, 1}) {
		t.Fatal("length mismatch reported equal")
	}
}

func TestDendrogramCut(t *testing.T) {
	h := NewHierarchical()
	den, err := h.Dendrogram(blobs())
	if err != nil {
		t.Fatal(err)
	}
	if len(den.Merges) != len(blobs())-1 {
		t.Fatalf("merges = %d", len(den.Merges))
	}
	a, err := den.Cut(3)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBlobGrouping(a) {
		t.Fatalf("cut at 3 wrong: %v", a)
	}
	one, _ := den.Cut(1)
	if one.K() != 1 {
		t.Fatal("cut at 1 should give one cluster")
	}
	all, _ := den.Cut(len(blobs()))
	if all.K() != len(blobs()) {
		t.Fatal("cut at n should give singletons")
	}
	if _, err := den.Cut(0); err == nil {
		t.Fatal("cut at 0 accepted")
	}
	if _, err := den.Cut(100); err == nil {
		t.Fatal("cut above n accepted")
	}
}

func TestDendrogramHeightsNonDecreasingOnBlobs(t *testing.T) {
	// Average linkage on well-separated blobs: within-blob merges happen
	// before cross-blob merges.
	h := NewHierarchical()
	den, _ := h.Dendrogram(blobs())
	last := den.Merges[len(den.Merges)-1]
	first := den.Merges[0]
	if last.Height <= first.Height {
		t.Fatal("final merge should be the most expensive")
	}
}

func TestLinkages(t *testing.T) {
	h := NewHierarchical()
	a, err := h.Cluster(blobs(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBlobGrouping(a) {
		t.Errorf("Ward linkage failed on blobs: %v", a)
	}
	if h.Name() != "hierarchical-ward" {
		t.Fatalf("Name() = %q, want hierarchical-ward", h.Name())
	}
}

func TestKMeansEmptyClusterRecovery(t *testing.T) {
	// Duplicated points invite empty clusters; k-means must still return k
	// non-empty clusters.
	rows := [][]float64{{0, 0}, {0, 0}, {0, 0}, {10, 10}, {10, 10}, {20, 20}}
	a, err := NewKMeans().Cluster(rows, 3)
	if err != nil {
		t.Fatal(err)
	}
	sizes := a.Sizes()
	if len(sizes) != 3 {
		t.Fatalf("expected 3 clusters, got %d", len(sizes))
	}
	for i, s := range sizes {
		if s == 0 {
			t.Fatalf("cluster %d is empty", i)
		}
	}
}

func TestQuickAssignmentsValid(t *testing.T) {
	f := func(raw []uint8, kRaw uint8) bool {
		if len(raw) < 8 {
			return true
		}
		n := len(raw) / 2
		if n > 14 {
			n = 14 // keep PAM swap affordable
		}
		rows := make([][]float64, n)
		for i := 0; i < n; i++ {
			rows[i] = []float64{float64(raw[2*i]), float64(raw[2*i+1])}
		}
		k := int(kRaw)%n + 1
		for _, alg := range algorithms() {
			a, err := alg.Cluster(rows, k)
			if err != nil {
				return false
			}
			if len(a) != n {
				return false
			}
			for _, c := range a {
				if c < 0 || c >= k {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
