package cluster

import (
	"context"
	"fmt"

	"mobilebench/internal/par"
)

// SweepOptions configures an incremental validation sweep.
type SweepOptions struct {
	// KMin..KMax is the swept cluster-count range (KMax is capped at
	// n-1 per generation, exactly as SweepContext caps it).
	KMin, KMax int
	// Workers bounds the per-refresh (algorithm, k) fan-out (<= 0 = all
	// CPUs). Results are worker-count invariant.
	Workers int
}

// RefreshStats describes what one SweepState refresh actually did — the
// observable cost model of the incremental engine.
type RefreshStats struct {
	// Cells is the number of (algorithm, k) sweep cells computed.
	Cells int
	// NewCells counts cells that had no previous generation to compare
	// against (a cold build or rebuild, or k values unlocked by dataset
	// growth).
	NewCells int
	// ShiftedCells counts cells whose full-data grouping of the
	// previously-present observations changed versus the last generation.
	ShiftedCells int
}

// cellState is one (algorithm, k) cell's retained state: the published
// scores and the canonical full-data assignment, which the next refresh
// compares against to count shifted cells.
type cellState struct {
	scores Scores
	full   Assignment
}

// SweepState is an incrementally maintained Figure 4 validation sweep: the
// scores SweepContext would compute over the current rows, kept up to date
// as observations stream in. A cold build computes exactly what
// SweepContext computes (bit-identical, pinned by differential tests);
// AppendRows and UpdateRow then grow the distance matrices by delta and
// re-cluster every (algorithm, k) cell with the same cold multi-restart
// search the batch sweep uses, so every refresh is bit-identical to
// SweepContext over the same rows by construction. The delta matrices are
// the saving: each refresh computes only the new or changed rows and
// columns instead of all O(n²·d) distances.
//
// The per-column stability re-clustering is performed once per cell and
// shared by the APN and AD measures. SweepContext clusters each column
// twice — once inside APNDist, once inside ADDist — but clustering is
// deterministic, so both runs produce the same assignment and sharing one
// is bit-identical; the accumulation arithmetic is shared code
// (proportionNonOverlap, adColumn), so the scores cannot drift.
//
// A SweepState is not safe for concurrent use; refreshes fan out
// internally over SweepOptions.Workers.
type SweepState struct {
	algs  []Algorithm
	opt   SweepOptions
	mats  *Matrices
	kMax  int // effective KMax for the current row count
	cells []cellState
	gen   uint64
}

// NewSweepState cold-builds the sweep over rows — the same computation as
// SweepContext(ctx, algs, rows, opt.KMin, opt.KMax, opt.Workers).
func NewSweepState(ctx context.Context, algs []Algorithm, rows [][]float64, opt SweepOptions) (*SweepState, RefreshStats, error) {
	if opt.KMin < 2 {
		return nil, RefreshStats{}, fmt.Errorf("cluster: sweep needs kMin >= 2")
	}
	if len(algs) == 0 {
		return nil, RefreshStats{}, fmt.Errorf("cluster: sweep needs at least one algorithm")
	}
	s := &SweepState{algs: algs, opt: opt}
	st, err := s.refresh(ctx, NewMatrices(rows), false)
	if err != nil {
		return nil, RefreshStats{}, err
	}
	return s, st, nil
}

// Rebuild recomputes the sweep over rows from fresh distance matrices.
// It is the fallback for edits the delta constructors cannot express —
// several rows changing at once (e.g. a min-max normalization bound
// shifting) or rows disappearing.
func (s *SweepState) Rebuild(ctx context.Context, rows [][]float64) (RefreshStats, error) {
	return s.refresh(ctx, NewMatrices(rows), false)
}

// AppendRows refreshes the sweep after appending observations: rows is the
// full new row set, of which rows[:s.N()] are bit-unchanged. The distance
// matrices grow by delta and every cell re-validates over them.
func (s *SweepState) AppendRows(ctx context.Context, rows [][]float64) (RefreshStats, error) {
	if s.mats == nil || len(rows) < len(s.mats.Rows) {
		return s.refresh(ctx, NewMatrices(rows), false)
	}
	return s.refresh(ctx, s.mats.AppendRows(rows), true)
}

// UpdateRow refreshes the sweep after one existing observation changed:
// rows is the full new row set, equal to the previous rows except at
// index ri. Only row/column ri of each distance matrix is recomputed.
func (s *SweepState) UpdateRow(ctx context.Context, rows [][]float64, ri int) (RefreshStats, error) {
	if s.mats == nil || len(rows) != len(s.mats.Rows) || ri < 0 || ri >= len(rows) {
		return s.refresh(ctx, NewMatrices(rows), false)
	}
	return s.refresh(ctx, s.mats.UpdateRow(rows, ri), true)
}

// refresh recomputes every (algorithm, k) cell over mats. When delta is
// set, mats extends the previous generation's rows, so each cell is
// compared with its predecessor for the shifted count. State is only
// replaced on success; a cancelled or failed refresh leaves the previous
// generation intact.
func (s *SweepState) refresh(ctx context.Context, mats *Matrices, delta bool) (RefreshStats, error) {
	n := len(mats.Rows)
	kMax := s.opt.KMax
	if kMax >= n {
		kMax = n - 1
	}
	nk := kMax - s.opt.KMin + 1
	if nk <= 0 {
		return RefreshStats{}, fmt.Errorf("cluster: sweep needs at least %d observations, have %d", s.opt.KMin+1, n)
	}
	prevNK := 0
	if s.mats != nil {
		prevNK = s.kMax - s.opt.KMin + 1
	}
	cells := make([]cellState, len(s.algs)*nk)
	type cellInfo struct {
		isNew, shifted bool
	}
	info := make([]cellInfo, len(cells))
	err := par.ForEach(ctx, s.opt.Workers, len(cells), func(ctx context.Context, j int) error {
		ai, ki := j/nk, j%nk
		cs, err := computeCell(ctx, s.algs[ai], s.opt.KMin+ki, mats)
		if err != nil {
			return err
		}
		cells[j] = cs
		if delta && ki < prevNK {
			info[j].shifted = groupingShifted(s.cells[ai*prevNK+ki].full, cs.full)
		} else {
			info[j] = cellInfo{isNew: true, shifted: true}
		}
		return nil
	})
	if err != nil {
		return RefreshStats{}, err
	}
	st := RefreshStats{Cells: len(cells)}
	for _, ci := range info {
		if ci.isNew {
			st.NewCells++
		}
		if ci.shifted {
			st.ShiftedCells++
		}
	}
	s.mats, s.kMax, s.cells = mats, kMax, cells
	s.gen++
	return st, nil
}

// computeCell produces one (algorithm, k) cell: the full-data clustering,
// the per-column stability re-clusterings, and the four validation scores
// accumulated in exactly the order SweepContext accumulates them.
func computeCell(ctx context.Context, alg Algorithm, k int, mats *Matrices) (cellState, error) {
	if err := ctx.Err(); err != nil {
		return cellState{}, err
	}
	full, err := clusterDist(alg, mats.Rows, mats.Full, k)
	if err != nil {
		return cellState{}, err
	}
	nc := len(mats.Rows[0])
	fullMasks := clusterMasks(full)
	apn, ad := 0.0, 0.0
	for j := 0; j < nc; j++ {
		if err := ctx.Err(); err != nil {
			return cellState{}, err
		}
		r, err := clusterDist(alg, mats.DroppedRows[j], mats.Dropped[j], k)
		if err != nil {
			return cellState{}, fmt.Errorf("cluster: sweep with column %d removed: %w", j, err)
		}
		apn += proportionNonOverlap(full, r)
		ad += adColumn(mats.Full, full, fullMasks, r)
	}
	return cellState{
		full: full,
		scores: Scores{
			Algorithm:  alg.Name(),
			K:          k,
			Dunn:       DunnDist(mats.Full, full),
			Silhouette: SilhouetteDist(mats.Full, full),
			APN:        apn / float64(nc),
			AD:         ad / float64(nc),
		},
	}, nil
}

// groupingShifted reports whether cur groups prev's observations (a prefix
// of cur's) differently than prev did.
func groupingShifted(prev, cur Assignment) bool {
	if len(prev) > len(cur) {
		return true
	}
	return !SameGrouping(prev, cur[:len(prev)])
}

// N returns the number of observations in the current generation.
func (s *SweepState) N() int {
	if s.mats == nil {
		return 0
	}
	return len(s.mats.Rows)
}

// Gen returns the refresh generation (1 after the cold build, +1 per
// successful refresh).
func (s *SweepState) Gen() uint64 { return s.gen }

// Scores returns the current generation's validation scores, in the exact
// order SweepContext emits them.
func (s *SweepState) Scores() []Scores {
	out := make([]Scores, len(s.cells))
	for i, c := range s.cells {
		out[i] = c.scores
	}
	return out
}

// BestK aggregates the current scores into the winning cluster count.
func (s *SweepState) BestK() int { return BestK(s.Scores()) }

// Assignment returns the current full-data assignment of the named
// algorithm at k, or false when the cell is outside the swept range.
func (s *SweepState) Assignment(algName string, k int) (Assignment, bool) {
	nk := s.kMax - s.opt.KMin + 1
	for ai, alg := range s.algs {
		if alg.Name() != algName {
			continue
		}
		if k < s.opt.KMin || k > s.kMax {
			return nil, false
		}
		return s.cells[ai*nk+(k-s.opt.KMin)].full, true
	}
	return nil, false
}

// Clone returns an independent SweepState sharing the immutable matrices
// and assignments: refreshing the clone never mutates the original (every
// refresh replaces the cell slice wholesale), so benchmarks and what-if
// refreshes can fork cheaply.
func (s *SweepState) Clone() *SweepState {
	c := *s
	c.cells = append([]cellState(nil), s.cells...)
	return &c
}
