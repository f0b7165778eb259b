package cluster

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"mobilebench/internal/stats"
)

func TestDistMatrixAgreesWithEuclidean(t *testing.T) {
	rows := blobs()
	m := NewDistMatrix(rows)
	if m.N() != len(rows) {
		t.Fatalf("N() = %d, want %d", m.N(), len(rows))
	}
	for i := range rows {
		for j := range rows {
			want := stats.Euclidean(rows[i], rows[j])
			if got := m.At(i, j); math.Abs(got-want) > 1e-12 {
				t.Fatalf("At(%d,%d) = %g, want %g", i, j, got, want)
			}
		}
	}
}

func TestDistMatrixSymmetryAndDiagonal(t *testing.T) {
	m := NewDistMatrix(blobs())
	for i := 0; i < m.N(); i++ {
		if m.At(i, i) != 0 {
			t.Fatalf("diagonal At(%d,%d) = %g, want 0", i, i, m.At(i, i))
		}
		for j := 0; j < i; j++ {
			if m.At(i, j) != m.At(j, i) {
				t.Fatalf("asymmetric: At(%d,%d)=%g, At(%d,%d)=%g",
					i, j, m.At(i, j), j, i, m.At(j, i))
			}
		}
	}
}

// TestDistMatrixDropMatchesReducedRows pins the bit-identity NewMatrices
// relies on: the drop-column matrix must equal NewDistMatrix over rows with
// that column removed, exactly — both sum squared deltas in ascending
// column order, so the float accumulation order is the same.
func TestDistMatrixDropMatchesReducedRows(t *testing.T) {
	rows := blobs()
	for drop := range rows[0] {
		fast := NewDistMatrixDrop(rows, drop)
		reduced := make([][]float64, len(rows))
		for i, r := range rows {
			row := make([]float64, 0, len(r)-1)
			row = append(row, r[:drop]...)
			row = append(row, r[drop+1:]...)
			reduced[i] = row
		}
		ref := NewDistMatrix(reduced)
		for i := range rows {
			for j := range rows {
				if fast.At(i, j) != ref.At(i, j) {
					t.Fatalf("drop %d: At(%d,%d) = %g, want %g (not bit-identical)",
						drop, i, j, fast.At(i, j), ref.At(i, j))
				}
			}
		}
	}
}

// TestSharedMatricesConcurrent exercises the sweep's concurrency contract:
// one Matrices set is read by many (algorithm, row set) jobs at once, as
// SweepContext runs them. Every algorithm clusters every row set from
// several goroutines, and each result must equal the same job run alone.
// Run with -race to catch any mutation of the shared matrices.
func TestSharedMatricesConcurrent(t *testing.T) {
	mats := NewMatrices(blobs())
	sets := 1 + len(mats.Dropped)
	for _, alg := range algorithms() {
		want := make([][]Assignment, sets)
		for set := range want {
			var err error
			if want[set], err = clusterRowSet(context.Background(), alg, mats, set, 2, 6); err != nil {
				t.Fatal(err)
			}
		}
		got := make([][]Assignment, 4*sets)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var err error
				if got[g], err = clusterRowSet(context.Background(), alg, mats, g%sets, 2, 6); err != nil {
					t.Error(err)
				}
			}(g)
		}
		wg.Wait()
		for g := range got {
			if !reflect.DeepEqual(got[g], want[g%sets]) {
				t.Fatalf("%s: concurrent job %d on row set %d = %v, want %v", alg.Name(), g, g%sets, got[g], want[g%sets])
			}
		}
	}
}

// TestDistWrappersMatchPlainAPI confirms the matrix-threaded paths return
// exactly what the original row-based API returns.
func TestDistWrappersMatchPlainAPI(t *testing.T) {
	rows := blobs()
	mats := NewMatrices(rows)
	full, err := NewKMeans().Cluster(rows, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := DunnDist(mats.Full, full), DunnDist(NewDistMatrix(rows), full); got != want {
		t.Fatalf("DunnDist over the shared matrix = %g, over a fresh one = %g", got, want)
	}
	if got := SilhouetteDist(mats.Full, full); got != Silhouette(rows, full) {
		t.Fatalf("SilhouetteDist = %g, Silhouette = %g", got, Silhouette(rows, full))
	}
}
