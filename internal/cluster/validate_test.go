package cluster

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

func TestDunnOnBlobs(t *testing.T) {
	d := NewDistMatrix(blobs())
	good := Assignment{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2}
	bad := Assignment{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}
	if DunnDist(d, good) <= DunnDist(d, bad) {
		t.Fatal("Dunn did not prefer the natural grouping")
	}
	if DunnDist(d, good) <= 1 {
		t.Fatalf("well-separated blobs should have Dunn > 1, got %g", DunnDist(d, good))
	}
}

func TestDunnDegenerate(t *testing.T) {
	d := NewDistMatrix([][]float64{{0, 0}, {0, 0}})
	a := Assignment{0, 1}
	if !math.IsInf(DunnDist(d, a), 1) {
		t.Fatal("zero-diameter clusters should give infinite Dunn")
	}
}

func TestSilhouetteOnBlobs(t *testing.T) {
	rows := blobs()
	good := Assignment{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2}
	bad := Assignment{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}
	sg, sb := Silhouette(rows, good), Silhouette(rows, bad)
	if sg <= sb {
		t.Fatalf("silhouette did not prefer the natural grouping: %g vs %g", sg, sb)
	}
	if sg < 0.9 {
		t.Fatalf("well-separated blobs should have silhouette near 1, got %g", sg)
	}
	if sb < -1 || sb > 1 {
		t.Fatalf("silhouette out of range: %g", sb)
	}
}

func TestSilhouetteSingleCluster(t *testing.T) {
	if Silhouette(blobs(), make(Assignment, 12)) != 0 {
		t.Fatal("k=1 silhouette should be 0")
	}
}

func TestSilhouetteSingletonsContributeZero(t *testing.T) {
	rows := [][]float64{{0, 0}, {0.1, 0}, {10, 10}}
	a := Assignment{0, 0, 1}
	s := Silhouette(rows, a)
	// The two clustered points have s ~ 1; the singleton contributes 0.
	want := 2.0 / 3.0
	if math.Abs(s-want) > 0.05 {
		t.Fatalf("silhouette = %g, want ~%g", s, want)
	}
}

// sweepCell runs the sweep for alg at the single cluster count k and
// returns that cell's scores.
func sweepCell(t *testing.T, alg Algorithm, rows [][]float64, k int) Scores {
	t.Helper()
	scores, _, err := SweepContext(context.Background(), []Algorithm{alg}, rows, k, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	return scores[0]
}

func TestAPNStableData(t *testing.T) {
	// Blobs separate on both features, so removing either feature keeps the
	// grouping: APN should be ~0.
	if apn := sweepCell(t, NewKMeans(), blobs(), 3).APN; apn > 0.01 {
		t.Fatalf("APN on stable data = %g, want ~0", apn)
	}
}

func TestAPNUnstableData(t *testing.T) {
	// Groups separated on exactly one feature each: dropping a column must
	// scramble assignments and raise APN.
	rows := [][]float64{
		{0, 0}, {0, 0.1}, {0, 10}, {0, 10.1},
		{10, 5}, {10.1, 5}, {0.05, 5}, {0, 5.05},
	}
	if apn := sweepCell(t, NewKMeans(), rows, 4).APN; apn <= 0 {
		t.Fatal("column-dependent grouping should have positive APN")
	}
}

func TestADBounds(t *testing.T) {
	ad := sweepCell(t, NewKMeans(), blobs(), 3).AD
	if ad < 0 {
		t.Fatalf("AD negative: %g", ad)
	}
	// AD shrinks as k grows (smaller clusters, smaller within-distances).
	if ad9 := sweepCell(t, NewKMeans(), blobs(), 9).AD; ad9 >= ad {
		t.Fatalf("AD should shrink with k: k=3 %g vs k=9 %g", ad, ad9)
	}
}

// sweep is SweepContext run sequentially, keeping only the scores.
func sweep(algs []Algorithm, rows [][]float64, kMin, kMax int) ([]Scores, error) {
	scores, _, err := SweepContext(context.Background(), algs, rows, kMin, kMax, 1)
	return scores, err
}

func TestSweep(t *testing.T) {
	scores, err := sweep(algorithms(), blobs(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 3*3 {
		t.Fatalf("scores = %d, want 9", len(scores))
	}
	// Degenerate sweeps have no cell to score; an empty result would make
	// BestK report k = 0, so each must fail instead.
	for _, tc := range []struct {
		name       string
		algs       []Algorithm
		rows       [][]float64
		kMin, kMax int
		want       string
	}{
		{"kMin=1", algorithms(), blobs(), 1, 4, "kMin"},
		{"too few rows", algorithms(), blobs()[:2], 2, 4, "observations"},
		{"kMax<kMin", algorithms(), blobs(), 4, 3, "kMax 3 < kMin 4"},
		{"no algorithms", nil, blobs(), 2, 4, "algorithm"},
	} {
		scores, err := sweep(tc.algs, tc.rows, tc.kMin, tc.kMax)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: %d scores, err = %v, want error containing %q", tc.name, len(scores), err, tc.want)
		}
	}
}

func TestSweepClampsKMax(t *testing.T) {
	rows := blobs()[:4]
	scores, err := sweep([]Algorithm{NewKMeans()}, rows, 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	maxK := 0
	for _, s := range scores {
		if s.K > maxK {
			maxK = s.K
		}
	}
	if maxK != 3 {
		t.Fatalf("kMax not clamped to n-1: %d", maxK)
	}
}

func TestBestKOnBlobs(t *testing.T) {
	scores, err := sweep(algorithms(), blobs(), 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if k := BestK(scores); k != 3 {
		t.Fatalf("BestK = %d, want 3 on three blobs", k)
	}
}

func TestProportionNonOverlap(t *testing.T) {
	full := Assignment{0, 0, 1, 1}
	if p := proportionNonOverlap(full, full); p != 0 {
		t.Fatalf("identical assignments overlap = %g, want 0", p)
	}
	flipped := Assignment{0, 1, 0, 1}
	if p := proportionNonOverlap(full, flipped); p != 0.5 {
		t.Fatalf("half-overlap = %g, want 0.5", p)
	}
}

func TestSweepContextMatchesSequential(t *testing.T) {
	seq, seqAssign, err := SweepContext(context.Background(), algorithms(), blobs(), 2, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 8} {
		got, assign, err := SweepContext(context.Background(), algorithms(), blobs(), 2, 6, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, seq) || !reflect.DeepEqual(assign, seqAssign) {
			t.Fatalf("workers=%d: parallel sweep differs from sequential", workers)
		}
	}
}

func TestSweepContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := SweepContext(ctx, algorithms(), blobs(), 2, 6, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// cancellingAlg cancels the sweep's context after a set number of Cluster
// calls, modelling a deadline expiring while a sweep point is mid-flight.
type cancellingAlg struct {
	Algorithm
	cancel func()
	after  int64
	calls  atomic.Int64
}

func (a *cancellingAlg) Cluster(rows [][]float64, k int) (Assignment, error) {
	if a.calls.Add(1) >= a.after {
		a.cancel()
	}
	return a.Algorithm.Cluster(rows, k)
}

// TestSweepStopsWithinSweepPoint asserts a cancelled sweep stops *inside*
// a sweep point: once the context dies after the full clustering, no
// leave-one-column-out re-clustering may run.
func TestSweepStopsWithinSweepPoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	alg := &cancellingAlg{Algorithm: algorithms()[0], cancel: cancel, after: 1}
	if _, _, err := SweepContext(ctx, []Algorithm{alg}, blobs(), 2, 6, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// One full clustering ran; the per-column stability re-clusterings of
	// that sweep point (and every later point) must have been skipped.
	if n := alg.calls.Load(); n != 1 {
		t.Fatalf("algorithm ran %d times after cancellation, want 1", n)
	}
}
