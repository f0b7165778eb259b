package core

import (
	"crypto/md5"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"mobilebench/internal/checkpoint"
	"mobilebench/internal/sim"
)

// TestCollectStreamedMatchesFull pins the TraceMode contract at the dataset
// level: a streamed collection carries the same aggregates and feature
// vectors as a full one (the per-tick folds are identical), materializes no
// traces, and the trace-consuming analyses fail with ErrNoTrace instead of
// panicking.
func TestCollectStreamedMatchesFull(t *testing.T) {
	units := shortUnits()
	full, err := Collect(Options{Sim: sim.Config{}, Runs: 2, Units: units, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := Collect(Options{
		Sim: sim.Config{TraceMode: sim.TraceStreamed}, Runs: 2, Units: units, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Units {
		if full.Units[i].Agg != streamed.Units[i].Agg {
			t.Fatalf("unit %s: aggregates differ between TraceFull and TraceStreamed",
				full.Units[i].Workload.Name)
		}
		if streamed.Units[i].Trace != nil {
			t.Fatal("streamed collection materialized a trace")
		}
		if streamed.Units[i].Summary == nil {
			t.Fatal("streamed collection carries no summary")
		}
	}
	// The storage feature comes from the averaged trace in full mode and
	// from merged Welford streams in streamed mode. Run durations jitter,
	// so the merged stream weights runs by their sample counts while trace
	// averaging weights them equally — a relative difference of order
	// (jitter x per-run mean spread), far below any analysis threshold.
	fm, sm := full.FeatureMatrix(), streamed.FeatureMatrix()
	for i := range fm {
		for j := range fm[i] {
			if d := math.Abs(fm[i][j] - sm[i][j]); d > 1e-3*math.Max(1, math.Abs(fm[i][j])) {
				t.Fatalf("feature [%d][%d] differs: full %g streamed %g", i, j, fm[i][j], sm[i][j])
			}
		}
	}
	if _, err := streamed.Observations(); !errors.Is(err, ErrNoTrace) {
		t.Fatalf("Observations on streamed dataset: got %v, want ErrNoTrace", err)
	}
	if _, err := streamed.Figure2(10); !errors.Is(err, ErrNoTrace) {
		t.Fatalf("Figure2 on streamed dataset: got %v, want ErrNoTrace", err)
	}
	if _, err := streamed.Figure3(); !errors.Is(err, ErrNoTrace) {
		t.Fatalf("Figure3 on streamed dataset: got %v, want ErrNoTrace", err)
	}
}

// TestCollectAutoSupportsAllFigures pins that TraceAuto keeps every bundled
// analysis working: the analysis metric set is traced, so the temporal
// figures and observation gates pass.
func TestCollectAutoSupportsAllFigures(t *testing.T) {
	ds, err := Collect(Options{
		Sim: sim.Config{TraceMode: sim.TraceAuto}, Runs: 1, Units: shortUnits(), Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Figure2(20); err != nil {
		t.Fatalf("Figure2 under TraceAuto: %v", err)
	}
	if _, err := ds.Figure3(); err != nil {
		t.Fatalf("Figure3 under TraceAuto: %v", err)
	}
}

// TestCollectFastForwardWorkerInvariant pins that the approximate path keeps
// the collection's parallelism invariant: a fast-forwarded dataset is
// deep-equal for any worker count.
func TestCollectFastForwardWorkerInvariant(t *testing.T) {
	units := shortUnits()
	seq, err := Collect(Options{
		Sim: sim.Config{FastForward: true}, Runs: 2, Units: units, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Collect(Options{
		Sim: sim.Config{FastForward: true}, Runs: 2, Units: units, Workers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Units, par.Units) {
		t.Fatal("fast-forwarded Workers=8 dataset differs from Workers=1")
	}
}

// TestCheckpointCanonicalAcrossWorkerCounts is the exact-mode identity
// guarantee the fast-forward work must not break: checkpoints written by
// collections at different worker counts hold identical records — the MD5
// over the (unit, run)-ordered record encodings matches.
func TestCheckpointCanonicalAcrossWorkerCounts(t *testing.T) {
	units := shortUnits()
	dir := t.TempDir()
	sums := map[int]string{}
	for _, workers := range []int{1, 4} {
		opts := Options{
			Sim: sim.Config{}, Runs: 2, Units: units, Workers: workers,
			Checkpoint: filepath.Join(dir, fmt.Sprintf("w%d.ckpt", workers)),
		}
		if _, err := Collect(opts); err != nil {
			t.Fatal(err)
		}
		fp, err := opts.CheckpointFingerprint()
		if err != nil {
			t.Fatal(err)
		}
		snap, err := checkpoint.Load(opts.Checkpoint, fp)
		if err != nil {
			t.Fatal(err)
		}
		// Records land in completion order, which is scheduling-dependent;
		// canonicalize before hashing.
		sort.Slice(snap.Records, func(i, j int) bool {
			a, b := &snap.Records[i], &snap.Records[j]
			if a.Unit != b.Unit {
				return a.Unit < b.Unit
			}
			return a.Run < b.Run
		})
		h := md5.New()
		for i := range snap.Records {
			h.Write(checkpoint.EncodeRecord(fp, &snap.Records[i]))
		}
		sums[workers] = string(h.Sum(nil))
	}
	if sums[1] != sums[4] {
		t.Fatalf("canonical checkpoint MD5 differs across worker counts: %x vs %x", sums[1], sums[4])
	}
}

// TestValidateRejectsCheckpointedStreaming pins that checkpointed collection
// demands full traces (snapshots restore them).
func TestValidateRejectsCheckpointedStreaming(t *testing.T) {
	err := Options{
		Sim: sim.Config{TraceMode: sim.TraceStreamed}, Checkpoint: "x.ckpt",
	}.Validate()
	var oe *OptionError
	if !errors.As(err, &oe) || oe.Field != "Checkpoint" {
		t.Fatalf("got %v, want OptionError on Checkpoint", err)
	}
	if err := (Options{Sim: sim.Config{TraceMode: 7}}).Validate(); err == nil {
		t.Fatal("out-of-range TraceMode accepted")
	}
}
