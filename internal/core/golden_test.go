package core

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mobilebench/internal/cluster"
)

// update rewrites the testdata goldens instead of comparing against them:
//
//	go test ./internal/core -run Golden -update
//
// An intended output change is committed with the rewritten files and a
// CHANGES.md line that names the golden and the reason.
var update = flag.Bool("update", false, "rewrite the testdata goldens")

// requireGolden compares v, as indented JSON, with testdata/name, or
// rewrites the file under -update. The goldens pin float64 bits: JSON
// writes the shortest decimal that parses back to the same float64.
func requireGolden(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	requireGoldenBytes(t, name, append(got, '\n'))
}

// requireGoldenBytes compares got with testdata/name, or rewrites the file
// under -update. A mismatch names every line that moved, up to ten.
func requireGoldenBytes(t *testing.T, name string, got []byte) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are pinned on amd64; on %s the compiler may fuse x*y+z into one FMA instruction, which rounds differently", runtime.GOARCH)
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	var moved []string
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			moved = append(moved, fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i]))
		}
	}
	if len(gl) != len(wl) {
		moved = append(moved, fmt.Sprintf("%d lines, want %d", len(gl), len(wl)))
	}
	if len(moved) > 10 {
		moved = append(moved[:10], fmt.Sprintf("... and %d more", len(moved)-10))
	}
	t.Fatalf("%s differs from the golden:\n%s", path, strings.Join(moved, "\n"))
}

// noisyStreamRecords returns n records that visit 18 units in turn, the
// way a live stream repeats runs: unit u's records scatter its base
// vector (streamRecordsWithCenters over evenly spaced centers) and its
// runtime by seeded multiplicative noise of ±5%. Sequences are 1..n.
func noisyStreamRecords(n int) []StreamRecord {
	base := streamRecordsWithCenters(18, []float64{0, 10, 20, 30})
	state := uint64(0x853c49e6748fea9b)
	noise := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return 1 + 0.1*(float64(state>>40)/float64(1<<24)-0.5)
	}
	recs := make([]StreamRecord, n)
	for i := range recs {
		b := base[i%len(base)]
		f := make([]float64, len(b.Features))
		for j, v := range b.Features {
			f[j] = v * noise()
		}
		recs[i] = StreamRecord{Seq: uint64(i + 1), Unit: b.Unit, RuntimeSec: b.RuntimeSec * noise(), Features: f}
	}
	return recs
}

// TestStreamBatchGolden pins core.StreamBatch's Summary for fixed record
// sets: well-separated and evenly spaced units with one record each, and
// three noisy runs of 18 units.
func TestStreamBatchGolden(t *testing.T) {
	sets := []struct {
		name string
		recs []StreamRecord
	}{
		{"asymmetric-16", streamTestRecords(16)},
		{"evenly-spaced-12", streamRecordsWithCenters(12, []float64{0, 10, 20, 30})},
		{"noisy-18x3", noisyStreamRecords(54)},
	}
	type entry struct {
		Name    string  `json:"name"`
		Summary Summary `json:"summary"`
	}
	var got []entry
	for _, s := range sets {
		sum, err := StreamBatch(context.Background(), s.recs, StreamOptions{Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		got = append(got, entry{s.name, sum})
	}
	requireGolden(t, "stream_batch.json", got)
}

// TestStreamIngestGolden pins every StreamDelta and Summary along one
// Ingest sequence that passes through every mode: pending, init, append
// and rebuild while units arrive, then a duplicate record (unchanged), an
// interior unit's repeat run (update) and a bound-extending one (rebuild).
func TestStreamIngestGolden(t *testing.T) {
	recs := streamRecordsWithCenters(12, []float64{0, 10, 20, 30})
	dup := recs[5]
	dup.Seq = 100
	interior := StreamRecord{Seq: 101, Unit: recs[6].Unit, RuntimeSec: 9, Features: make([]float64, len(FeatureNames()))}
	bound := StreamRecord{Seq: 102, Unit: recs[3].Unit, RuntimeSec: 9, Features: make([]float64, len(FeatureNames()))}
	for j := range interior.Features {
		interior.Features[j], bound.Features[j] = 20.5, 93
	}
	recs = append(recs, dup, interior, bound)

	type step struct {
		Delta   StreamDelta `json:"delta"`
		Summary Summary     `json:"summary"`
	}
	st := NewStreamState(StreamOptions{Workers: 2})
	var got []step
	modes := map[string]bool{}
	for i, rec := range recs {
		d, err := st.Ingest(context.Background(), rec)
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		modes[d.Mode] = true
		got = append(got, step{d, st.Summary()})
	}
	for _, m := range []string{StreamModePending, StreamModeInit, StreamModeAppend, StreamModeUpdate, StreamModeRebuild, StreamModeUnchanged} {
		if !modes[m] {
			t.Errorf("the sequence never takes mode %q", m)
		}
	}
	requireGolden(t, "stream_ingest.json", got)
}

// TestFigure4SweepGolden pins cluster.SweepContext's scores and full-data
// assignments over the three-run Figure 4 features of the shared seed-888
// dataset.
func TestFigure4SweepGolden(t *testing.T) {
	d := dataset(t)
	scores, assigns, err := cluster.SweepContext(context.Background(), Algorithms(), d.NormalizedFeatures(), 2, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		Scores     cluster.Scores     `json:"scores"`
		Assignment cluster.Assignment `json:"assignment"`
	}
	got := make([]cell, len(scores))
	for i := range scores {
		got[i] = cell{scores[i], assigns[i]}
	}
	if len(got) != 3*8 {
		t.Fatalf("sweep has %d cells, want %d", len(got), 3*8)
	}
	requireGolden(t, "figure4_sweep.json", got)
}
