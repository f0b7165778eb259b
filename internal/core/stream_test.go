package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// streamRecordsWithCenters builds deterministic records: n units, one
// record each, features scattered by a small LCG around centers[i%4].
// Sequences are 1..n.
func streamRecordsWithCenters(n int, centers []float64) []StreamRecord {
	d := len(FeatureNames())
	state := uint64(0x2545f4914f6cdd1d)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>40) / float64(1<<24) // [0, 1)
	}
	recs := make([]StreamRecord, n)
	for i := range recs {
		f := make([]float64, d)
		c := centers[i%len(centers)]
		for j := range f {
			f[j] = c + next()
		}
		recs[i] = StreamRecord{
			Seq:        uint64(i + 1),
			Unit:       fmt.Sprintf("unit-%02d", i),
			RuntimeSec: 5 + float64(i),
			Features:   f,
		}
	}
	return recs
}

// streamTestRecords uses strongly asymmetric center separation: every
// swept k has one clearly-best partition.
func streamTestRecords(n int) []StreamRecord {
	return streamRecordsWithCenters(n, []float64{0, 7, 30, 90})
}

func summaryJSON(t *testing.T, s Summary) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// requireSummariesEqual pins the incremental summary byte-identical to the
// batch comparator's.
func requireSummariesEqual(t *testing.T, label string, st *StreamState, recs []StreamRecord, opt StreamOptions) {
	t.Helper()
	batch, err := StreamBatch(context.Background(), recs, opt)
	if err != nil {
		t.Fatalf("%s: StreamBatch: %v", label, err)
	}
	got, want := summaryJSON(t, st.Summary()), summaryJSON(t, batch)
	if got != want {
		t.Fatalf("%s: incremental summary diverges from batch\nincremental: %s\nbatch:       %s", label, got, want)
	}
}

// TestStreamIncrementalMatchesBatch is the end-to-end differential test:
// after every single ingest, the incrementally maintained Summary is
// byte-identical (as JSON) to a cold batch analysis of the same records,
// at multiple worker counts and with default options. The evenly spaced
// centers have no clearly-best partition at k past the natural count, so
// any search other than the batch sweep's own can settle in a different
// local optimum there.
func TestStreamIncrementalMatchesBatch(t *testing.T) {
	datasets := []struct {
		name string
		recs []StreamRecord
		kMax int
	}{
		{"asymmetric", streamTestRecords(16), 4},
		{"evenly-spaced", streamRecordsWithCenters(12, []float64{0, 10, 20, 30}), 6},
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, ds := range datasets {
				t.Run(ds.name, func(t *testing.T) {
					opt := StreamOptions{KMin: 2, KMax: ds.kMax, Workers: workers}
					requireIncrementalMatchesBatch(t, ds.recs, opt)
				})
			}
		})
	}
}

// requireIncrementalMatchesBatch ingests recs one at a time, holds the
// batch identity after each, and checks the refresh modes the ingests took.
func requireIncrementalMatchesBatch(t *testing.T, recs []StreamRecord, opt StreamOptions) {
	t.Helper()
	st := NewStreamState(opt)
	var modes []string
	for i, rec := range recs {
		d, err := st.Ingest(context.Background(), rec)
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		modes = append(modes, d.Mode)
		requireSummariesEqual(t, fmt.Sprintf("after record %d (%s)", i, d.Mode), st, recs[:i+1], opt)
	}
	// The first sweep needs kMin+1 = 3 units; before that the stream is
	// pending, then it initializes cold, and every later single-unit
	// arrival is either an in-bounds append (delta matrices) or a
	// bound-shifting rebuild.
	if modes[0] != StreamModePending || modes[1] != StreamModePending {
		t.Fatalf("modes before kMin+1 units = %v, want pending", modes[:2])
	}
	if modes[2] != StreamModeInit {
		t.Fatalf("mode at kMin+1 units = %q, want init", modes[2])
	}
	appends := 0
	for i, m := range modes[3:] {
		switch m {
		case StreamModeAppend:
			appends++
		case StreamModeRebuild:
		default:
			t.Fatalf("record %d mode = %q, want append or rebuild", i+3, m)
		}
	}
	// Units whose centers sit strictly inside the normalization bounds can
	// never shift them, so the delta path must have been exercised.
	if appends == 0 {
		t.Fatal("no record took the append delta path")
	}
}

// TestStreamRepeatRecordPaths drives the remaining ingest modes — a
// duplicate record (unchanged), a repeat run moving one interior unit's
// mean (update), and a bound-extending repeat run (rebuild) — and holds
// the batch identity through each.
func TestStreamRepeatRecordPaths(t *testing.T) {
	recs := streamTestRecords(12)
	opt := StreamOptions{KMin: 2, KMax: 4, Workers: 2}
	st := NewStreamState(opt)
	for i, rec := range recs {
		if _, err := st.Ingest(context.Background(), rec); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}

	// A second run identical to the unit's current mean leaves the
	// normalized matrix bit-unchanged: the sweep must not be touched.
	dup := recs[5]
	dup.Seq = 100
	gen := st.sweep.Gen()
	d, err := st.Ingest(context.Background(), dup)
	if err != nil {
		t.Fatal(err)
	}
	if d.Mode != StreamModeUnchanged || st.sweep.Gen() != gen {
		t.Fatalf("duplicate record: mode %q gen %d -> %d, want unchanged with same gen", d.Mode, gen, st.sweep.Gen())
	}
	all := append(append([]StreamRecord(nil), recs...), dup)
	requireSummariesEqual(t, "after duplicate record", st, all, opt)

	// A repeat run for an interior unit (center 30: never a column min or
	// max) moves exactly one row without touching the normalization
	// bounds: the row/column delta path.
	run2 := StreamRecord{Seq: 101, Unit: recs[6].Unit, RuntimeSec: 9, Features: make([]float64, len(FeatureNames()))}
	for j := range run2.Features {
		run2.Features[j] = 30.5
	}
	d, err = st.Ingest(context.Background(), run2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Mode != StreamModeUpdate {
		t.Fatalf("interior repeat run: mode %q, want update", d.Mode)
	}
	all = append(all, run2)
	requireSummariesEqual(t, "after interior repeat run", st, all, opt)

	// A repeat run pushing a boundary unit's mean past the recorded
	// maximum renormalizes every row: the sweep must rebuild cold.
	run3 := StreamRecord{Seq: 102, Unit: recs[3].Unit, RuntimeSec: 9, Features: make([]float64, len(FeatureNames()))}
	for j := range run3.Features {
		run3.Features[j] = 93
	}
	d, err = st.Ingest(context.Background(), run3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Mode != StreamModeRebuild {
		t.Fatalf("bound-extending repeat run: mode %q, want rebuild", d.Mode)
	}
	all = append(all, run3)
	requireSummariesEqual(t, "after bound-extending repeat run", st, all, opt)
}

// TestStreamZeroRuntimeSkipsSubset pins that feature-only streams (no
// runtime to reduce) publish clusters but no subset accounting.
func TestStreamZeroRuntimeSkipsSubset(t *testing.T) {
	recs := streamTestRecords(8)
	for i := range recs {
		recs[i].RuntimeSec = 0
	}
	opt := StreamOptions{KMin: 2, KMax: 4, Workers: 1}
	st := NewStreamState(opt)
	for i, rec := range recs {
		if _, err := st.Ingest(context.Background(), rec); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	sum := st.Summary()
	if sum.Subset != nil {
		t.Fatal("zero-runtime stream published a subset")
	}
	if len(sum.Clusters) == 0 {
		t.Fatal("zero-runtime stream published no clusters")
	}
	requireSummariesEqual(t, "zero-runtime stream", st, recs, opt)
}

// TestStreamRecordValidate covers the ingest rejections: malformed records
// and sequence regressions, none of which may mutate the stream.
func TestStreamRecordValidate(t *testing.T) {
	good := streamTestRecords(1)[0]
	bad := []struct {
		name string
		mut  func(r *StreamRecord)
		want string
	}{
		{"empty unit", func(r *StreamRecord) { r.Unit = "" }, "unit name"},
		{"short features", func(r *StreamRecord) { r.Features = r.Features[:3] }, "features"},
		{"NaN feature", func(r *StreamRecord) { r.Features[2] = math.NaN() }, "not finite"},
		{"Inf feature", func(r *StreamRecord) { r.Features[0] = math.Inf(1) }, "not finite"},
		{"negative runtime", func(r *StreamRecord) { r.RuntimeSec = -1 }, "runtime"},
		{"NaN runtime", func(r *StreamRecord) { r.RuntimeSec = math.NaN() }, "runtime"},
	}
	for _, tc := range bad {
		r := good
		r.Features = append([]float64(nil), good.Features...)
		tc.mut(&r)
		if err := r.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
	}

	st := NewStreamState(StreamOptions{})
	first := good
	first.Seq = 5
	if _, err := st.Ingest(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	replay := good
	replay.Seq = 3
	if _, err := st.Ingest(context.Background(), replay); err == nil {
		t.Fatal("sequence regression accepted")
	}
	if st.Count() != 1 || st.LastSeq() != 5 {
		t.Fatalf("rejected record mutated the stream: count %d lastSeq %d", st.Count(), st.LastSeq())
	}
}

// TestStreamOptionsValidate covers the option guards and defaults.
func TestStreamOptionsValidate(t *testing.T) {
	if err := (StreamOptions{}).Validate(); err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
	for _, tc := range []StreamOptions{
		{KMin: 1},
		{KMin: 5, KMax: 3},
	} {
		if err := tc.Validate(); err == nil {
			t.Fatalf("options %+v accepted", tc)
		}
	}
	d := StreamOptions{}.WithDefaults()
	if d.KMin != 2 || d.KMax != 9 {
		t.Fatalf("defaults = k %d..%d, want 2..9", d.KMin, d.KMax)
	}
}
