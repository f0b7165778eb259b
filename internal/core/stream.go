// Streaming ingest: the record-at-a-time counterpart of the batch
// similarity pipeline. A StreamState folds measurement records one at a
// time and keeps the Figure 4 sweep, the winning cluster count, the
// hierarchical grouping and the Naive subset recommendation continuously up
// to date. A record that leaves the normalized feature matrix bit-unchanged
// skips the sweep; any other record re-runs the batch sweep
// (cluster.SweepContext) over the new matrix. The published state is
// therefore byte-identical to StreamBatch — the same records folded in the
// same order through the batch sweep — by construction, and differential
// tests pin it.
package core

import (
	"context"
	"fmt"
	"math"

	"mobilebench/internal/cluster"
	"mobilebench/internal/stats"
	"mobilebench/internal/subset"
)

// StreamRecord is one ingested measurement: a benchmark unit's raw feature
// vector (FeatureNames order) plus the run's wall-clock runtime. Repeated
// records for the same unit accumulate — the unit's feature vector is the
// running mean over its records, mirroring how the batch collector averages
// a unit's runs.
type StreamRecord struct {
	// Seq is the ingest sequence number. Zero means "unassigned" (the
	// server assigns one on ingest); non-zero sequences must be strictly
	// increasing.
	Seq        uint64    `json:"seq,omitempty"`
	Unit       string    `json:"unit"`
	RuntimeSec float64   `json:"runtime_sec"`
	Features   []float64 `json:"features"`
}

// Validate rejects records the stream cannot fold deterministically.
func (r StreamRecord) Validate() error {
	if r.Unit == "" {
		return fmt.Errorf("core: stream record needs a unit name")
	}
	if want := len(FeatureNames()); len(r.Features) != want {
		return fmt.Errorf("core: stream record for %q has %d features, want %d",
			r.Unit, len(r.Features), want)
	}
	for i, v := range r.Features {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: stream record for %q: feature %s is not finite",
				r.Unit, FeatureNames()[i])
		}
	}
	if r.RuntimeSec < 0 || math.IsNaN(r.RuntimeSec) || math.IsInf(r.RuntimeSec, 0) {
		return fmt.Errorf("core: stream record for %q has invalid runtime %v", r.Unit, r.RuntimeSec)
	}
	return nil
}

// StreamOptions configures a stream's analysis sweep.
type StreamOptions struct {
	// KMin..KMax is the swept cluster-count range; zero values default to
	// 2..9 (the paper's Figure 4 range). KMax is capped at n-1 while the
	// stream is still small, exactly as the batch sweep caps it.
	KMin, KMax int
	// Deprecated: ChurnLimit tuned the removed warm-start path; nothing
	// reads it. It remains only so existing callers still compile.
	ChurnLimit float64
	// Workers bounds the sweep fan-out (<= 0 = all CPUs); results are
	// worker-count invariant.
	Workers int
	// Deprecated: Exact selected the cold refresh, which is now the only
	// refresh; nothing reads it. It remains only so existing callers
	// still compile.
	Exact bool
}

// WithDefaults returns the options with zero values replaced by the
// defaults — the normalization cache keys must share, so a default and
// its explicit spelling address the same entry.
func (o StreamOptions) WithDefaults() StreamOptions {
	if o.KMin == 0 {
		o.KMin = 2
	}
	if o.KMax == 0 {
		o.KMax = 9
	}
	return o
}

// Validate rejects option combinations the sweep would reject later.
func (o StreamOptions) Validate() error {
	d := o.WithDefaults()
	if d.KMin < 2 {
		return fmt.Errorf("core: stream kMin %d < 2", d.KMin)
	}
	if d.KMax < d.KMin {
		return fmt.Errorf("core: stream kMax %d < kMin %d", d.KMax, d.KMin)
	}
	return nil
}

// Ingest modes reported in StreamDelta.Mode. Each names how the ingest
// changed the normalized feature matrix; every mode except pending and
// unchanged re-runs the sweep.
const (
	// StreamModePending: too few units to sweep yet (n < kMin+1).
	StreamModePending = "pending"
	// StreamModeUnchanged: the normalized feature matrix is bit-unchanged,
	// so the previous sweep still holds.
	StreamModeUnchanged = "unchanged"
	// StreamModeInit: the first sweep, once kMin+1 units have arrived.
	StreamModeInit = "init"
	// StreamModeAppend: one new unit appended; every earlier row is
	// bit-unchanged.
	StreamModeAppend = "append"
	// StreamModeUpdate: exactly one existing unit's row changed.
	StreamModeUpdate = "update"
	// StreamModeRebuild: the change rippled through normalization bounds
	// (or otherwise touched several rows).
	StreamModeRebuild = "rebuild"
)

// StreamUnit is one unit's folded state in a Summary.
type StreamUnit struct {
	Name string `json:"name"`
	Runs int    `json:"runs"`
	// RuntimeSec is the mean per-run runtime, the quantity the subset
	// accounting weighs.
	RuntimeSec float64 `json:"runtime_sec"`
	// Features is the unit's max-normalized mean feature vector (the Yi et
	// al. normalization the subset analysis uses).
	Features []float64 `json:"features"`
}

// StreamScore is one (algorithm, k) validation row of the Figure 4 sweep.
type StreamScore struct {
	Algorithm  string  `json:"algorithm"`
	K          int     `json:"k"`
	Dunn       float64 `json:"dunn"`
	Silhouette float64 `json:"silhouette"`
	APN        float64 `json:"apn"`
	AD         float64 `json:"ad"`
}

// StreamSubset is the stream's Naive subset recommendation with its Table
// VI runtime accounting.
type StreamSubset struct {
	Members       []string `json:"members"`
	RuntimeSec    float64  `json:"runtime_sec"`
	ReductionFrac float64  `json:"reduction_frac"`
}

// Summary is the stream's published analysis state. Gen is the dataset
// generation — the number of records folded — and changes with every
// accepted record, which is what lets result caches fold "which data" into
// their keys; LastSeq is the highest folded sequence number.
type Summary struct {
	Gen     int          `json:"gen"`
	LastSeq uint64       `json:"last_seq"`
	Units   []StreamUnit `json:"units"`
	// Scores, BestK, Clusters and Subset are present once the stream holds
	// enough units to sweep (n >= kMin+1). Clusters is the hierarchical
	// grouping at BestK; Subset is the Naive pick over it.
	Scores   []StreamScore `json:"scores,omitempty"`
	BestK    int           `json:"best_k,omitempty"`
	Clusters [][]string    `json:"clusters,omitempty"`
	Subset   *StreamSubset `json:"subset,omitempty"`
}

// StreamDelta describes what one ingest did: which record was folded, how
// it changed the normalized feature matrix, and the sweep counters (zero
// when the sweep was skipped).
type StreamDelta struct {
	Seq  uint64 `json:"seq,omitempty"`
	Unit string `json:"unit"`
	Mode string `json:"mode"`
	Gen  int    `json:"gen"`
	// BestK after this ingest (0 while pending).
	BestK int `json:"best_k,omitempty"`
	// Cells is the number of (algorithm, k) sweep cells computed.
	// NewCells counts cells with no previous cell to compare against:
	// every cell of an init or rebuild, and k values unlocked by growth.
	// ShiftedCells counts cells whose full-data grouping of the
	// previously present units changed, new cells included.
	Cells        int `json:"cells,omitempty"`
	NewCells     int `json:"new_cells,omitempty"`
	ShiftedCells int `json:"shifted_cells,omitempty"`
	// Deprecated: WarmCells counted cells of the removed warm-start path.
	// It is always 0, so omitempty keeps it off the wire; it remains only
	// so existing callers still compile.
	WarmCells int `json:"warm_cells,omitempty"`
}

// streamUnit is one unit's running fold: sums, so the mean is recomputed
// exactly (sum/runs) the same way regardless of ingest grouping.
type streamUnit struct {
	name       string
	runs       int
	sumRuntime float64
	sumF       []float64
}

// StreamState folds StreamRecords and keeps the sweep over them current.
// Not safe for concurrent use; the server serializes ingests.
type StreamState struct {
	opt     StreamOptions
	units   []*streamUnit
	index   map[string]int
	count   int
	lastSeq uint64
	// norm is the min-max normalized mean-feature matrix of the current
	// generation — the rows the sweep clusters.
	norm [][]float64
	// scores and assigns are the last sweep over norm, in SweepContext
	// order; nil while pending.
	scores  []cluster.Scores
	assigns []cluster.Assignment
	summary Summary
}

// NewStreamState returns an empty stream.
func NewStreamState(opt StreamOptions) *StreamState {
	return &StreamState{opt: opt.WithDefaults(), index: make(map[string]int)}
}

// Count returns the number of records folded (the dataset generation).
func (s *StreamState) Count() int { return s.count }

// LastSeq returns the highest folded sequence number.
func (s *StreamState) LastSeq() uint64 { return s.lastSeq }

// Summary returns the current published analysis state.
func (s *StreamState) Summary() Summary { return s.summary }

// fold validates rec and accumulates it into the unit table.
func (s *StreamState) fold(rec StreamRecord) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	if rec.Seq != 0 && rec.Seq <= s.lastSeq {
		return fmt.Errorf("core: stream sequence %d not after %d", rec.Seq, s.lastSeq)
	}
	i, ok := s.index[rec.Unit]
	if !ok {
		i = len(s.units)
		s.units = append(s.units, &streamUnit{
			name: rec.Unit,
			sumF: make([]float64, len(rec.Features)),
		})
		s.index[rec.Unit] = i
	}
	u := s.units[i]
	u.runs++
	u.sumRuntime += rec.RuntimeSec
	for j, v := range rec.Features {
		u.sumF[j] += v
	}
	s.count++
	if rec.Seq > s.lastSeq {
		s.lastSeq = rec.Seq
	}
	return nil
}

// meanRows returns each unit's mean feature vector, in unit arrival order.
func (s *StreamState) meanRows() [][]float64 {
	rows := make([][]float64, len(s.units))
	for i, u := range s.units {
		r := make([]float64, len(u.sumF))
		for j, v := range u.sumF {
			r[j] = v / float64(u.runs)
		}
		rows[i] = r
	}
	return rows
}

// Ingest folds one record and refreshes the analysis: a record that
// leaves the normalized rows bit-unchanged keeps the previous sweep, and
// any other change re-runs the sweep over the new rows. The published
// state (rows, sweep and summary) is replaced only on success.
func (s *StreamState) Ingest(ctx context.Context, rec StreamRecord) (StreamDelta, error) {
	if err := s.fold(rec); err != nil {
		return StreamDelta{}, err
	}
	norm := stats.NormalizeColumnsMinMax(s.meanRows())
	mode, scores, assigns, err := s.refreshSweep(ctx, norm)
	if err != nil {
		// The record is folded and, at the server layer, already
		// persisted; the only errors here are cancellation, which the
		// server avoids by ingesting under context.Background().
		return StreamDelta{}, err
	}
	sum, err := s.summarize(scores, func(k int) (cluster.Assignment, error) {
		for i, sc := range scores {
			if sc.Algorithm == streamHierName && sc.K == k {
				return assigns[i], nil
			}
		}
		return nil, fmt.Errorf("core: stream sweep has no %s cell at k=%d", streamHierName, k)
	})
	if err != nil {
		return StreamDelta{}, err
	}
	cells, newCells, shifted := cellCounts(mode, s.assigns, assigns, len(Algorithms()))
	s.norm, s.scores, s.assigns, s.summary = norm, scores, assigns, sum
	return StreamDelta{
		Seq:          rec.Seq,
		Unit:         rec.Unit,
		Mode:         mode,
		Gen:          s.count,
		BestK:        sum.BestK,
		Cells:        cells,
		NewCells:     newCells,
		ShiftedCells: shifted,
	}, nil
}

// refreshSweep classifies the change from the published rows to norm and
// returns the sweep over norm: the previous one when norm is unchanged
// (or still too small to sweep), a fresh SweepContext otherwise.
func (s *StreamState) refreshSweep(ctx context.Context, norm [][]float64) (string, []cluster.Scores, []cluster.Assignment, error) {
	var mode string
	switch d := diffRows(s.norm, norm); {
	case s.scores == nil && len(norm) < s.opt.KMin+1:
		return StreamModePending, nil, nil, nil
	case s.scores == nil:
		mode = StreamModeInit
	case d == diffUnchanged:
		return StreamModeUnchanged, s.scores, s.assigns, nil
	case d == diffAppended:
		mode = StreamModeAppend
	case d >= 0:
		mode = StreamModeUpdate
	default:
		mode = StreamModeRebuild
	}
	scores, assigns, err := cluster.SweepContext(ctx, Algorithms(), norm, s.opt.KMin, s.opt.KMax, s.opt.Workers)
	if err != nil {
		return "", nil, nil, err
	}
	return mode, scores, assigns, nil
}

// cellCounts returns an ingest's sweep counters, comparing the sweep's
// assignments (cur) with the previous sweep's (prev), both in SweepContext
// order over nAlg algorithms. Pending and unchanged ran no sweep. Init and
// rebuild compare nothing: every cell is new and shifted. Append and update
// compare each (algorithm, k) cell that existed before over the previous
// rows (a prefix of the new ones); a k unlocked by growth is new.
func cellCounts(mode string, prev, cur []cluster.Assignment, nAlg int) (cells, newCells, shifted int) {
	switch mode {
	case StreamModePending, StreamModeUnchanged:
		return 0, 0, 0
	case StreamModeInit, StreamModeRebuild:
		return len(cur), len(cur), len(cur)
	}
	cells = len(cur)
	prevNK, nk := len(prev)/nAlg, len(cur)/nAlg
	for j, a := range cur {
		ai, ki := j/nk, j%nk
		if ki >= prevNK {
			newCells++
			shifted++
			continue
		}
		p := prev[ai*prevNK+ki]
		if !cluster.SameGrouping(p, a[:len(p)]) {
			shifted++
		}
	}
	return cells, newCells, shifted
}

// diffRows classifies the change from prev to cur.
const (
	diffUnchanged = -1
	diffAppended  = -2
	diffRebuild   = -3
)

// diffRows returns diffUnchanged, diffAppended (cur is prev plus exactly
// one bit-identical-prefix row), the index of the single changed row, or
// diffRebuild when the change touches several rows.
func diffRows(prev, cur [][]float64) int {
	sameRow := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for j := range a {
			if a[j] != b[j] {
				return false
			}
		}
		return true
	}
	switch {
	case len(cur) == len(prev):
		changed := -1
		for i := range cur {
			if !sameRow(prev[i], cur[i]) {
				if changed >= 0 {
					return diffRebuild
				}
				changed = i
			}
		}
		if changed < 0 {
			return diffUnchanged
		}
		return changed
	case len(cur) == len(prev)+1:
		for i := range prev {
			if !sameRow(prev[i], cur[i]) {
				return diffRebuild
			}
		}
		return diffAppended
	default:
		return diffRebuild
	}
}

// summarize builds the published Summary from the current fold and the
// given sweep's scores (nil while pending); group returns the hierarchical
// grouping at the sweep's BestK. Shared by the incremental and batch paths
// so the published fields cannot drift.
func (s *StreamState) summarize(scores []cluster.Scores, group func(k int) (cluster.Assignment, error)) (Summary, error) {
	sum := Summary{Gen: s.count, LastSeq: s.lastSeq}
	if len(s.units) == 0 {
		return sum, nil
	}
	maxNorm := stats.NormalizeColumnsMax(s.meanRows())
	sum.Units = make([]StreamUnit, len(s.units))
	for i, u := range s.units {
		sum.Units[i] = StreamUnit{
			Name:       u.name,
			Runs:       u.runs,
			RuntimeSec: u.sumRuntime / float64(u.runs),
			Features:   maxNorm[i],
		}
	}
	if scores == nil {
		return sum, nil
	}
	sum.Scores = make([]StreamScore, len(scores))
	for i, sc := range scores {
		sum.Scores[i] = StreamScore{
			Algorithm:  sc.Algorithm,
			K:          sc.K,
			Dunn:       sc.Dunn,
			Silhouette: sc.Silhouette,
			APN:        sc.APN,
			AD:         sc.AD,
		}
	}
	sum.BestK = cluster.BestK(scores)
	assign, err := group(sum.BestK)
	if err != nil {
		return Summary{}, err
	}
	return finishSummary(sum, assign)
}

// streamHierName is the algorithm whose grouping the stream publishes —
// the same hierarchical clustering the batch pipeline's Figure 5 uses.
var streamHierName = cluster.NewHierarchical().Name()

// finishSummary derives the cluster groups and the Naive subset from the
// hierarchical assignment at BestK.
func finishSummary(sum Summary, assign cluster.Assignment) (Summary, error) {
	groups := make([][]string, assign.K())
	for i, c := range assign {
		groups[c] = append(groups[c], sum.Units[i].Name)
	}
	sum.Clusters = groups
	bs := make([]subset.Benchmark, len(sum.Units))
	total := 0.0
	for i, u := range sum.Units {
		bs[i] = subset.Benchmark{Name: u.Name, RuntimeSec: u.RuntimeSec, Features: u.Features}
		total += u.RuntimeSec
	}
	// Zero-runtime streams (feature-only records) have no runtime to
	// reduce; the subset accounting is skipped, not failed.
	if total <= 0 {
		return sum, nil
	}
	naive, err := subset.Naive(bs, assign)
	if err != nil {
		return Summary{}, err
	}
	reds, err := subset.Reductions(bs, []subset.Set{naive})
	if err != nil {
		return Summary{}, err
	}
	sum.Subset = &StreamSubset{
		Members:       naive.Members,
		RuntimeSec:    reds[0].RuntimeSec,
		ReductionFrac: reds[0].ReductionFrac,
	}
	return sum, nil
}

// StreamBatch is the cold comparator for the ingest path: it folds
// records in order and runs the batch sweep (SweepContext) once over the
// result, producing the Summary a fresh batch analysis of the same data
// would publish. It takes the hierarchical grouping from its own
// clustering at BestK rather than from the sweep's assignments.
// Differential tests pin StreamState's record-at-a-time Summary
// byte-identical to this.
func StreamBatch(ctx context.Context, records []StreamRecord, opt StreamOptions) (Summary, error) {
	s := NewStreamState(opt)
	for _, rec := range records {
		if err := ctx.Err(); err != nil {
			return Summary{}, err
		}
		if err := s.fold(rec); err != nil {
			return Summary{}, err
		}
	}
	s.norm = stats.NormalizeColumnsMinMax(s.meanRows())
	if len(s.norm) < s.opt.KMin+1 {
		return s.summarize(nil, nil)
	}
	scores, _, err := cluster.SweepContext(ctx, Algorithms(), s.norm, s.opt.KMin, s.opt.KMax, s.opt.Workers)
	if err != nil {
		return Summary{}, err
	}
	return s.summarize(scores, func(k int) (cluster.Assignment, error) {
		return cluster.NewHierarchical().Cluster(s.norm, k)
	})
}
