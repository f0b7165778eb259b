package cluster

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// referenceSweep is the sweep computed measure by measure: APN and AD each
// re-cluster every removed column themselves, and the cells run one after
// another. SweepContext shares one re-clustering per column between the two
// measures and fans the cells out over workers; clustering is
// deterministic, so both must produce the same bits.
func referenceSweep(algs []Algorithm, rows [][]float64, kMin, kMax int) ([]Scores, []Assignment, error) {
	if kMax >= len(rows) {
		kMax = len(rows) - 1
	}
	mats := NewMatrices(rows)
	var scores []Scores
	var assigns []Assignment
	for _, alg := range algs {
		for k := kMin; k <= kMax; k++ {
			full, err := clusterDist(alg, rows, mats.Full, k)
			if err != nil {
				return nil, nil, err
			}
			apn, err := referenceAPN(alg, mats, k, full)
			if err != nil {
				return nil, nil, err
			}
			ad, err := referenceAD(alg, mats, k, full)
			if err != nil {
				return nil, nil, err
			}
			scores = append(scores, Scores{
				Algorithm:  alg.Name(),
				K:          k,
				Dunn:       DunnDist(mats.Full, full),
				Silhouette: SilhouetteDist(mats.Full, full),
				APN:        apn,
				AD:         ad,
			})
			assigns = append(assigns, full)
		}
	}
	return scores, assigns, nil
}

// referenceAPN is the average proportion of non-overlap (Datta & Datta)
// over every removed column, re-clustering each column itself.
func referenceAPN(alg Algorithm, m *Matrices, k int, full Assignment) (float64, error) {
	nc := len(m.Rows[0])
	total := 0.0
	for j := 0; j < nc; j++ {
		reduced, err := clusterDist(alg, m.DroppedRows[j], m.Dropped[j], k)
		if err != nil {
			return 0, fmt.Errorf("APN with column %d removed: %w", j, err)
		}
		total += proportionNonOverlap(full, reduced)
	}
	return total / float64(nc), nil
}

// referenceAD is the average distance measure (Datta & Datta) over every
// removed column, re-clustering each column itself.
func referenceAD(alg Algorithm, m *Matrices, k int, full Assignment) (float64, error) {
	nc := len(m.Rows[0])
	fullMasks := clusterMasks(full)
	total := 0.0
	for j := 0; j < nc; j++ {
		reduced, err := clusterDist(alg, m.DroppedRows[j], m.Dropped[j], k)
		if err != nil {
			return 0, fmt.Errorf("AD with column %d removed: %w", j, err)
		}
		total += adColumn(m.Full, full, fullMasks, reduced)
	}
	return total / float64(nc), nil
}

// asymBlobRows is benchBlobRows with strongly asymmetric center spacing:
// every swept k has one clearly-best partition (distinct merge costs).
// The reference test runs it beside benchBlobRows' ambiguously spaced
// centers, so identity is pinned on both kinds of cluster structure.
func asymBlobRows(n, d int) [][]float64 {
	centers := []float64{0, 7, 30, 90}
	rows := make([][]float64, n)
	state := uint64(0x2545f4914f6cdd1d)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>40) / float64(1<<24)
	}
	for i := range rows {
		c := centers[i%len(centers)]
		row := make([]float64, d)
		for j := range row {
			row[j] = c + next()
		}
		rows[i] = row
	}
	return rows
}

// TestSweepMatchesReference pins SweepContext bit-identical to the
// measure-by-measure reference: every float64 compares with ==, and every
// cell's full-data assignment is equal, on ambiguous, asymmetric and
// well-separated blobs, at one and at several workers.
func TestSweepMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name       string
		rows       [][]float64
		kMin, kMax int
	}{
		{"ambiguous", benchBlobRows(18, 6), 2, 6},
		{"asymmetric", asymBlobRows(18, 6), 2, 6},
		{"blobs", blobs(), 2, 9},
	} {
		want, wantAssign, err := referenceSweep(algorithms(), tc.rows, tc.kMin, tc.kMax)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			got, assign, err := SweepContext(context.Background(), algorithms(), tc.rows, tc.kMin, tc.kMax, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) || len(assign) != len(wantAssign) {
				t.Fatalf("%s workers=%d: %d scores, %d assignments, want %d",
					tc.name, workers, len(got), len(assign), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: scores[%d] = %+v, want %+v (must be bit-identical)",
						tc.name, workers, i, got[i], want[i])
				}
				if !reflect.DeepEqual(assign[i], wantAssign[i]) {
					t.Fatalf("%s workers=%d: assignment %d = %v, want %v",
						tc.name, workers, i, assign[i], wantAssign[i])
				}
			}
		}
	}
}
