package cluster

import (
	"context"
	"testing"
)

// The delta constructors' contract is bit-identity, so every comparison in
// this file is exact float equality — no tolerances.

func mutateRow(rows [][]float64, i int, delta float64) [][]float64 {
	out := make([][]float64, len(rows))
	for j, r := range rows {
		out[j] = r
	}
	r := append([]float64(nil), rows[i]...)
	for j := range r {
		r[j] += delta * float64(j+1)
	}
	out[i] = r
	return out
}

func sameMatrix(t *testing.T, name string, got, want *DistMatrix) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%s: n=%d, want %d", name, got.N(), want.N())
	}
	for i := 0; i < want.N(); i++ {
		for j := 0; j < want.N(); j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("%s: entry (%d,%d) = %v, want %v (must be bit-identical)", name, i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestAppendRowsBitIdentical(t *testing.T) {
	rows := benchBlobRows(20, 6)
	for _, old := range []int{1, 10, 19} {
		base := NewDistMatrix(rows[:old])
		sameMatrix(t, "AppendRows", base.AppendRows(rows), NewDistMatrix(rows))
		for drop := 0; drop < 6; drop++ {
			baseD := NewDistMatrixDrop(rows[:old], drop)
			sameMatrix(t, "AppendRowsDrop", baseD.AppendRowsDrop(rows, drop), NewDistMatrixDrop(rows, drop))
		}
	}
}

func TestUpdateRowBitIdentical(t *testing.T) {
	rows := benchBlobRows(16, 5)
	for _, ri := range []int{0, 7, 15} {
		updated := mutateRow(rows, ri, 0.25)
		base := NewDistMatrix(rows)
		sameMatrix(t, "UpdateRow", base.UpdateRow(updated, ri), NewDistMatrix(updated))
		for drop := 0; drop < 5; drop++ {
			baseD := NewDistMatrixDrop(rows, drop)
			sameMatrix(t, "UpdateRowDrop", baseD.UpdateRowDrop(updated, ri, drop), NewDistMatrixDrop(updated, drop))
		}
	}
}

func sameMatrices(t *testing.T, got, want *Matrices) {
	t.Helper()
	sameMatrix(t, "Full", got.Full, want.Full)
	if len(got.Dropped) != len(want.Dropped) {
		t.Fatalf("Dropped count %d, want %d", len(got.Dropped), len(want.Dropped))
	}
	for j := range want.Dropped {
		sameMatrix(t, "Dropped", got.Dropped[j], want.Dropped[j])
		for i := range want.DroppedRows[j] {
			for c := range want.DroppedRows[j][i] {
				if got.DroppedRows[j][i][c] != want.DroppedRows[j][i][c] {
					t.Fatalf("DroppedRows[%d][%d][%d] = %v, want %v", j, i, c, got.DroppedRows[j][i][c], want.DroppedRows[j][i][c])
				}
			}
		}
	}
}

func TestMatricesDeltaBitIdentical(t *testing.T) {
	rows := benchBlobRows(14, 4)
	base := NewMatrices(rows[:12])
	sameMatrices(t, base.AppendRows(rows), NewMatrices(rows))

	updated := mutateRow(rows, 3, -0.5)
	sameMatrices(t, NewMatrices(rows).UpdateRow(updated, 3), NewMatrices(updated))
}

func sweepStateAlgs() []Algorithm {
	return []Algorithm{NewKMeans(), NewPAM(), NewHierarchical()}
}

func sameScores(t *testing.T, name string, got, want []Scores) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: scores[%d] = %+v, want %+v (must be bit-identical)", name, i, got[i], want[i])
		}
	}
}

// A cold SweepState build is the same computation as SweepContext.
func TestSweepStateColdMatchesSweepContext(t *testing.T) {
	rows := benchBlobRows(18, 6)
	algs := sweepStateAlgs()
	want, err := SweepContext(context.Background(), algs, rows, 2, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		s, st, err := NewSweepState(context.Background(), algs, rows, SweepOptions{KMin: 2, KMax: 6, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		sameScores(t, "cold build", s.Scores(), want)
		if st.NewCells != st.Cells || st.ShiftedCells != st.Cells {
			t.Fatalf("cold build stats: %+v", st)
		}
	}
}

// asymBlobRows is benchBlobRows with strongly asymmetric center spacing:
// every swept k has one clearly-best partition (distinct merge costs).
// The differential tests run it beside benchBlobRows' ambiguously spaced
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

// The headline differential: streaming rows in one at a time through
// AppendRows produces, at every generation, exactly the scores a cold
// SweepContext computes over the same rows — across worker counts, on
// ambiguously and on asymmetrically spaced blobs.
func TestSweepStateAppendMatchesCold(t *testing.T) {
	algs := sweepStateAlgs()
	for _, tc := range []struct {
		name string
		rows [][]float64
		opt  SweepOptions
	}{
		{"ambiguous", benchBlobRows(24, 8), SweepOptions{KMin: 2, KMax: 6}},
		{"asymmetric", asymBlobRows(24, 8), SweepOptions{KMin: 2, KMax: 4}},
	} {
		for _, workers := range []int{1, 4} {
			opt := tc.opt
			opt.Workers = workers
			s, _, err := NewSweepState(context.Background(), algs, tc.rows[:16], opt)
			if err != nil {
				t.Fatal(err)
			}
			for n := 17; n <= 24; n++ {
				if _, err := s.AppendRows(context.Background(), tc.rows[:n]); err != nil {
					t.Fatal(err)
				}
				want, err := SweepContext(context.Background(), algs, tc.rows[:n], opt.KMin, opt.KMax, workers)
				if err != nil {
					t.Fatal(err)
				}
				sameScores(t, tc.name+" append", s.Scores(), want)
			}
		}
	}
}

// Growing past KMin+1 observations unlocks new k cells; they must run cold
// and land exactly where a cold sweep lands.
func TestSweepStateAppendUnlocksNewCells(t *testing.T) {
	rows := benchBlobRows(9, 5)
	algs := sweepStateAlgs()
	s, _, err := NewSweepState(context.Background(), algs, rows[:5], SweepOptions{KMin: 2, KMax: 6, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for n := 6; n <= 9; n++ {
		st, err := s.AppendRows(context.Background(), rows[:n])
		if err != nil {
			t.Fatal(err)
		}
		want, err := SweepContext(context.Background(), algs, rows[:n], 2, 6, 2)
		if err != nil {
			t.Fatal(err)
		}
		sameScores(t, "growing sweep", s.Scores(), want)
		if n <= 7 && st.NewCells != len(algs) {
			t.Fatalf("n=%d: NewCells = %d, want %d (one unlocked k per algorithm)", n, st.NewCells, len(algs))
		}
	}
}

func TestSweepStateUpdateMatchesCold(t *testing.T) {
	algs := sweepStateAlgs()
	for _, tc := range []struct {
		name string
		rows [][]float64
		opt  SweepOptions
	}{
		{"ambiguous", benchBlobRows(20, 6), SweepOptions{KMin: 2, KMax: 6}},
		{"asymmetric", asymBlobRows(20, 6), SweepOptions{KMin: 2, KMax: 4}},
	} {
		for _, workers := range []int{1, 4} {
			opt := tc.opt
			opt.Workers = workers
			s, _, err := NewSweepState(context.Background(), algs, tc.rows, opt)
			if err != nil {
				t.Fatal(err)
			}
			cur := tc.rows
			for _, ri := range []int{0, 11, 19} {
				cur = mutateRow(cur, ri, 0.05)
				if _, err := s.UpdateRow(context.Background(), cur, ri); err != nil {
					t.Fatal(err)
				}
				want, err := SweepContext(context.Background(), algs, cur, opt.KMin, opt.KMax, workers)
				if err != nil {
					t.Fatal(err)
				}
				sameScores(t, tc.name+" update", s.Scores(), want)
			}
		}
	}
}

func TestSweepStateRebuildMatchesCold(t *testing.T) {
	algs := sweepStateAlgs()
	s, _, err := NewSweepState(context.Background(), algs, benchBlobRows(12, 5), SweepOptions{KMin: 2, KMax: 6, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	other := benchBlobRows(15, 5)
	st, err := s.Rebuild(context.Background(), other)
	if err != nil {
		t.Fatal(err)
	}
	if st.NewCells != st.Cells {
		t.Fatalf("rebuild must compare no cell with the previous generation: %+v", st)
	}
	want, err := SweepContext(context.Background(), algs, other, 2, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	sameScores(t, "rebuild", s.Scores(), want)
}

// Refreshing a clone never perturbs the original.
func TestSweepStateCloneIsIndependent(t *testing.T) {
	rows := benchBlobRows(20, 6)
	algs := sweepStateAlgs()
	s, _, err := NewSweepState(context.Background(), algs, rows[:19], SweepOptions{KMin: 2, KMax: 6, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Scores()
	c := s.Clone()
	if _, err := c.AppendRows(context.Background(), rows); err != nil {
		t.Fatal(err)
	}
	sameScores(t, "original after clone refresh", s.Scores(), before)
	if c.N() != 20 || s.N() != 19 {
		t.Fatalf("clone n=%d original n=%d, want 20 and 19", c.N(), s.N())
	}
}

// A failed refresh (cancelled context) leaves the previous generation
// fully intact.
func TestSweepStateRefreshFailureKeepsState(t *testing.T) {
	rows := benchBlobRows(16, 5)
	algs := sweepStateAlgs()
	s, _, err := NewSweepState(context.Background(), algs, rows[:15], SweepOptions{KMin: 2, KMax: 6, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	before, gen := s.Scores(), s.Gen()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.AppendRows(ctx, rows); err == nil {
		t.Fatal("refresh with a cancelled context must fail")
	}
	sameScores(t, "state after failed refresh", s.Scores(), before)
	if s.Gen() != gen || s.N() != 15 {
		t.Fatalf("gen=%d n=%d after failed refresh, want gen=%d n=15", s.Gen(), s.N(), gen)
	}
}

func TestSweepStateAssignment(t *testing.T) {
	rows := benchBlobRows(18, 6)
	algs := sweepStateAlgs()
	s, _, err := NewSweepState(context.Background(), algs, rows, SweepOptions{KMin: 2, KMax: 6, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHierarchical()
	want, err := h.ClusterDist(rows, NewDistMatrix(rows), 4)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s.Assignment(h.Name(), 4)
	if !ok {
		t.Fatalf("Assignment(%q, 4) not found", h.Name())
	}
	if !SameGrouping(got, want) {
		t.Fatalf("Assignment = %v, want %v", got, want)
	}
	if _, ok := s.Assignment(h.Name(), 7); ok {
		t.Fatal("Assignment reported a cell outside the swept range")
	}
	if _, ok := s.Assignment("nope", 4); ok {
		t.Fatal("Assignment reported an unknown algorithm")
	}
}
