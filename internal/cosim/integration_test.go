package cosim_test

import (
	"bytes"
	"crypto/md5"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"mobilebench/internal/checkpoint"
	"mobilebench/internal/core"
	"mobilebench/internal/cosim"
	"mobilebench/internal/sim"
	"mobilebench/internal/workload"
)

// shortestUnits returns the n shortest analysis units — the same pick the
// core chaos tests use to keep full-collection tests fast.
func shortestUnits(n int) []workload.Workload {
	units := workload.AnalysisUnits()
	sort.Slice(units, func(i, j int) bool { return units[i].Duration() < units[j].Duration() })
	return units[:n]
}

func collect(t *testing.T, opts core.Options) *core.Dataset {
	t.Helper()
	ds, err := core.Collect(opts)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return ds
}

func newProvider(t *testing.T, cfg cosim.Config) *cosim.Supervisor {
	t.Helper()
	p, err := cosim.NewSupervisor(cfg)
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func md5OfFile(t *testing.T, path string) [md5.Size]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return md5.Sum(data)
}

// baseOpts is the shared collection shape: 1 short unit, 2 runs, Workers=1
// so checkpoint records land in deterministic order and raw file MD5s are
// comparable.
func baseOpts() core.Options {
	return core.Options{
		Sim:     sim.Config{Seed: 888},
		Runs:    2,
		Units:   shortestUnits(1),
		Workers: 1,
	}
}

// TestCosimByteIdenticalToInProcess is the tentpole acceptance on the happy
// path: a collection timed by the external analytic model is byte-identical
// to the in-process one — same dataset, same checkpoint file MD5.
func TestCosimByteIdenticalToInProcess(t *testing.T) {
	dir := t.TempDir()

	inOpts := baseOpts()
	inOpts.Checkpoint = filepath.Join(dir, "inproc.ckpt")
	base := collect(t, inOpts)

	exOpts := baseOpts()
	exOpts.Checkpoint = filepath.Join(dir, "cosim.ckpt")
	exOpts.Sim.Timing = newProvider(t, childConfig("", ""))
	ds := collect(t, exOpts)

	if !reflect.DeepEqual(ds.Units, base.Units) {
		t.Fatal("externally timed dataset differs from the in-process one")
	}
	if ds.Degraded() {
		t.Fatalf("clean external run degraded: %+v", ds.Provenance)
	}
	if a, b := md5OfFile(t, inOpts.Checkpoint), md5OfFile(t, exOpts.Checkpoint); a != b {
		t.Fatalf("checkpoint MD5 drifted: in-process %x, cosim %x", a, b)
	}
}

// TestCosimConcurrentRunsShareOneChild: concurrent runs multiplex one
// supervisor (and one child) and still land deep-equal to the sequential
// in-process collection — the stateless protocol keeps interleaved query
// streams independent.
func TestCosimConcurrentRunsShareOneChild(t *testing.T) {
	base := collect(t, baseOpts())
	opts := baseOpts()
	opts.Workers = 4
	opts.Sim.Timing = newProvider(t, childConfig("", ""))
	ds := collect(t, opts)
	if !reflect.DeepEqual(ds.Units, base.Units) {
		t.Fatal("concurrent externally timed dataset differs from the sequential in-process one")
	}
}

// TestCosimKillRecoveryByteIdentical is the crash half of the acceptance:
// with the child repeatedly killed mid-run, restart + re-ask must converge
// to the same checkpoint MD5 as in-process collection — without degrading.
func TestCosimKillRecoveryByteIdentical(t *testing.T) {
	dir := t.TempDir()

	inOpts := baseOpts()
	inOpts.Checkpoint = filepath.Join(dir, "inproc.ckpt")
	base := collect(t, inOpts)

	cfg := childConfig("", "kill_every=97")
	cfg.MaxStrikes = 1 << 20 // recovery, not degradation, is under test
	exOpts := baseOpts()
	exOpts.Checkpoint = filepath.Join(dir, "chaos.ckpt")
	exOpts.Sim.Timing = newProvider(t, cfg)
	ds := collect(t, exOpts)

	if !reflect.DeepEqual(ds.Units, base.Units) {
		t.Fatal("kill-chaos dataset differs from the in-process baseline")
	}
	if a, b := md5OfFile(t, inOpts.Checkpoint), md5OfFile(t, exOpts.Checkpoint); a != b {
		t.Fatalf("checkpoint MD5 drifted under kill chaos: %x vs %x", a, b)
	}
	if ds.Degraded() {
		t.Fatalf("kill chaos degraded the dataset: %+v", ds.Provenance)
	}
	// The provenance must show the supervision actually worked for its
	// bytes: restarts happened and were recorded.
	prov, ok := ds.ProvenanceOf(exOpts.Units[0].Name)
	if !ok {
		t.Fatal("no provenance for the unit")
	}
	restarted := false
	for _, r := range prov.Runs {
		if notesContain(r.TimingNotes, "restarted") {
			restarted = true
		}
		if r.TimingDegraded {
			t.Fatalf("run %d on the degraded fallback despite the strike budget", r.Run)
		}
	}
	if !restarted {
		t.Fatal("kill chaos produced no restart notes — did the child ever die?")
	}
}

// TestCosimCircuitBreakByteIdentical is the degradation half: a child too
// broken to restart opens the circuit, the in-process fallback takes over,
// and — because the fallback computes the exact same bytes for an exact
// child — the checkpoint MD5 still matches; the switch lands in provenance.
func TestCosimCircuitBreakByteIdentical(t *testing.T) {
	dir := t.TempDir()

	inOpts := baseOpts()
	inOpts.Checkpoint = filepath.Join(dir, "inproc.ckpt")
	base := collect(t, inOpts)

	cfg := childConfig("", "kill_every=1")
	cfg.MaxStrikes = 2
	exOpts := baseOpts()
	exOpts.Checkpoint = filepath.Join(dir, "broken.ckpt")
	exOpts.Sim.Timing = newProvider(t, cfg)
	ds := collect(t, exOpts)

	if !reflect.DeepEqual(ds.Units, base.Units) {
		t.Fatal("circuit-broken dataset differs from the in-process baseline")
	}
	if a, b := md5OfFile(t, inOpts.Checkpoint), md5OfFile(t, exOpts.Checkpoint); a != b {
		t.Fatalf("checkpoint MD5 drifted after the circuit break: %x vs %x", a, b)
	}
	if !ds.Degraded() {
		t.Fatal("circuit break not surfaced through Dataset.Degraded")
	}
	prov, ok := ds.ProvenanceOf(exOpts.Units[0].Name)
	if !ok || prov.TimingDegradedRuns() == 0 {
		t.Fatalf("degradation not recorded in provenance: %+v", prov)
	}
}

// TestCosimResumeEveryBoundary mirrors the core chaos sweep one layer
// further out: a collection timed by a live external model (with a replay
// log) is crashed at every (unit, run) boundary and resumed — and must
// land bit-identical to the in-process baseline every time.
func TestCosimResumeEveryBoundary(t *testing.T) {
	dir := t.TempDir()
	base := collect(t, baseOpts())

	cfg := childConfig("", "")
	cfg.ReplayPath = filepath.Join(dir, "replay.log")
	provider := newProvider(t, cfg)

	opts := baseOpts()
	opts.Sim.Timing = provider
	opts.Checkpoint = filepath.Join(dir, "full.ckpt")
	full0 := collect(t, opts)
	if !reflect.DeepEqual(full0.Units, base.Units) {
		t.Fatal("checkpointed cosim collection differs from the in-process baseline")
	}

	fp, err := opts.CheckpointFingerprint()
	if err != nil {
		t.Fatalf("CheckpointFingerprint: %v", err)
	}
	full, err := checkpoint.Load(opts.Checkpoint, fp)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(full.Records) != 2 {
		t.Fatalf("checkpoint has %d records, want 2", len(full.Records))
	}
	data, err := os.ReadFile(opts.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the log after each of its lines, and once in the middle of the
	// second: the torn append a kill -9 mid-write leaves.
	first := bytes.IndexByte(data, '\n') + 1
	for _, cut := range []int{0, first, len(data), first + (len(data)-first)/2} {
		path := filepath.Join(dir, "resume.ckpt")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Checkpoint, o.Resume = path, true
		got := collect(t, o)
		if !reflect.DeepEqual(got.Units, base.Units) {
			t.Fatalf("cut at byte %d: resumed cosim dataset differs from the baseline", cut)
		}
		if !reflect.DeepEqual(got.Provenance, base.Provenance) {
			t.Fatalf("cut at byte %d: resumed provenance differs:\n got %+v\nwant %+v", cut, got.Provenance, base.Provenance)
		}
	}
}

// TestQDRAMFingerprintSeparates: a non-exact model stamps the checkpoint
// fingerprint, so its snapshots can never cross-resume with in-process
// ones; the collection itself still completes.
func TestQDRAMFingerprintSeparates(t *testing.T) {
	inOpts := baseOpts()
	inCanon, err := inOpts.CheckpointCanonical()
	if err != nil {
		t.Fatal(err)
	}
	qOpts := baseOpts()
	provider := newProvider(t, childConfig(cosim.ModelQDRAM, ""))
	if fp := provider.Fingerprint(); fp != "cosim:qdram" {
		t.Fatalf("qdram fingerprint = %q", fp)
	}
	qOpts.Sim.Timing = provider
	qCanon, err := qOpts.CheckpointCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if inCanon == qCanon {
		t.Fatal("qdram collection shares the in-process checkpoint canonical string")
	}
	ds := collect(t, qOpts)
	if len(ds.Units) != 1 || ds.Units[0].Agg.RuntimeSec <= 0 {
		t.Fatalf("qdram collection produced no data: %+v", ds.Units)
	}
}
