package core

import (
	"bytes"
	"context"
	"errors"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"mobilebench/internal/checkpoint"
	"mobilebench/internal/fault"
	"mobilebench/internal/sim"
	"mobilebench/internal/soc"
)

// collectOrFatal is the common "this collection must succeed" helper.
func collectOrFatal(t *testing.T, ctx context.Context, opts Options) *Dataset {
	t.Helper()
	ds, err := CollectContext(ctx, opts)
	if err != nil {
		t.Fatalf("CollectContext: %v", err)
	}
	return ds
}

// assertResumesBitIdentical simulates a crash at every (unit, run)
// boundary: for each k it cuts the full checkpoint log after its k-th line
// — exactly the file a process killed after its k-th completed pair leaves
// behind, because records are appended in completion order and Workers=1
// completes pairs sequentially — then resumes from it and demands the
// result deep-equal the uninterrupted baseline. One more cut lands in the
// middle of a line: the torn append a kill -9 mid-write leaves. At
// Workers=1 the resumed log must also end byte-identical to the full one.
func assertResumesBitIdentical(t *testing.T, base *Dataset, fullPath string, opts Options) {
	t.Helper()
	full, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(full, []byte("\n"))
	lines = lines[:len(lines)-1] // the empty remainder after the last newline
	cuts := make([]int, 0, len(lines)+2)
	for k, n := 0, 0; k <= len(lines); k++ {
		cuts = append(cuts, n)
		if k < len(lines) {
			n += len(lines[k])
		}
	}
	cuts = append(cuts, len(lines[0])+len(lines[1])/2) // torn second append
	dir := t.TempDir()
	for _, cut := range cuts {
		path := filepath.Join(dir, "resume.ckpt")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Checkpoint, o.Resume = path, true
		got := collectOrFatal(t, context.Background(), o)
		if !reflect.DeepEqual(got.Units, base.Units) {
			t.Fatalf("cut at byte %d: resumed dataset differs from the uninterrupted baseline", cut)
		}
		if !reflect.DeepEqual(got.Provenance, base.Provenance) {
			t.Fatalf("cut at byte %d: resumed provenance differs:\n got %+v\nwant %+v", cut, got.Provenance, base.Provenance)
		}
		if opts.Workers == 1 {
			if resumed, err := os.ReadFile(path); err != nil || !bytes.Equal(resumed, full) {
				t.Fatalf("cut at byte %d: resumed log is not byte-identical to the uninterrupted one (%v)", cut, err)
			}
		}
	}
}

// TestCheckpointResumeEveryBoundary is the tentpole guarantee on the clean
// path: a collection killed after any completed (unit, run) pair resumes to
// a dataset bit-identical to one that never crashed.
func TestCheckpointResumeEveryBoundary(t *testing.T) {
	units := shortUnits()[:2]
	opts := Options{Sim: sim.Config{Seed: 888}, Runs: 2, Units: units, Workers: 1}

	base := collectOrFatal(t, context.Background(), opts)

	withCkpt := opts
	withCkpt.Checkpoint = filepath.Join(t.TempDir(), "full.ckpt")
	ckptDS := collectOrFatal(t, context.Background(), withCkpt)
	if !reflect.DeepEqual(ckptDS.Units, base.Units) {
		t.Fatal("checkpointing changed the collected dataset")
	}

	fp, err := opts.CheckpointFingerprint()
	if err != nil {
		t.Fatalf("CheckpointFingerprint: %v", err)
	}
	full, err := checkpoint.Load(withCkpt.Checkpoint, fp)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(full.Records) != len(units)*2 {
		t.Fatalf("snapshot has %d records, want %d", len(full.Records), len(units)*2)
	}
	// Workers=1 completes pairs in (unit, run) order; the prefix-equals-
	// crash-state premise of assertResumesBitIdentical depends on it.
	for i, rec := range full.Records {
		if want, wantRun := units[i/2].Name, i%2; rec.Unit != want || rec.Run != wantRun {
			t.Fatalf("record %d is (%s, %d), want (%s, %d)", i, rec.Unit, rec.Run, want, wantRun)
		}
	}

	assertResumesBitIdentical(t, base, withCkpt.Checkpoint, opts)

	// A resumed collection may also fan back out: restored pairs skip, the
	// remainder parallelizes, and the merge order keeps it bit-identical.
	wide := opts
	wide.Workers = 4
	assertResumesBitIdentical(t, base, withCkpt.Checkpoint, wide)
}

// TestCheckpointChaosResumeBitIdentical crosses the two robustness layers:
// a fault-injected, self-healing collection is checkpointed, crashed at
// every boundary and resumed — and must still land bit-identical to the
// fault-free baseline, because the snapshot restores each pair's monotonic
// attempt counter along with its result.
func TestCheckpointChaosResumeBitIdentical(t *testing.T) {
	units := shortUnits()[:2]
	base := collectOrFatal(t, context.Background(), Options{
		Sim: sim.Config{Seed: 888}, Runs: 2, Units: units, Workers: 1,
	})

	inj := fault.New(fault.Config{
		Seed:  4321,
		Crash: 0.3, Abort: 0.25, Drop: 0.25, NaN: 0.25, Skew: 0.3,
		CleanAfter: 2,
	})
	chaosOpts := Options{
		Sim:        sim.Config{Seed: 888},
		Fault:      inj,
		Runs:       2,
		Units:      units,
		Workers:    1,
		Resilience: chaosPolicy(),
	}
	withCkpt := chaosOpts
	withCkpt.Checkpoint = filepath.Join(t.TempDir(), "chaos.ckpt")
	chaos := collectOrFatal(t, context.Background(), withCkpt)
	if !reflect.DeepEqual(chaos.Units, base.Units) {
		t.Fatal("chaos collection with checkpointing is not bit-identical to the fault-free baseline")
	}
	if chaos.Degraded() {
		t.Fatalf("chaos collection degraded: %+v", chaos.Provenance)
	}

	// base here carries the provenance of the *chaos* run: a resumed chaos
	// collection must reproduce the interrupted one's attempt history too.
	assertResumesBitIdentical(t, chaos, withCkpt.Checkpoint, chaosOpts)
}

// TestCheckpointMidFlightCancellationResume kills a live collection the way
// an operator would — cancelling its context while a run is in flight — and
// resumes from whatever the checkpoint captured.
func TestCheckpointMidFlightCancellationResume(t *testing.T) {
	units := shortUnits()[:2]
	base := collectOrFatal(t, context.Background(), Options{
		Sim: sim.Config{Seed: 888}, Runs: 2, Units: units, Workers: 1,
	})

	// The third pair (unit 1, run 0) stalls for far longer than the test
	// will wait, pinning the collection mid-flight with two pairs durable.
	hangUnit := units[1].Name
	stall := fault.NewFunc(func(unit string, run, attempt int) fault.Plan {
		if unit == hangUnit && run == 0 {
			return fault.Plan{HangSec: 300}
		}
		return fault.Plan{}
	})
	path := filepath.Join(t.TempDir(), "killed.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := CollectContext(ctx, Options{
			Sim: sim.Config{Seed: 888}, Fault: stall, Runs: 2, Units: units, Workers: 1,
			Resilience: Resilience{MaxRetries: 1, BackoffBase: time.Millisecond},
			Checkpoint: path,
		})
		done <- err
	}()
	// Wait until the first two pairs are durable, then pull the plug.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if snap, err := checkpoint.Load(path, 0); err == nil && len(snap.Records) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint never reached 2 records")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted collection: err = %v, want context.Canceled", err)
	}

	// Resume in a "new process": same options shape, but the injector now
	// plans nothing (NewFunc injectors fingerprint as their zero Config, so
	// the snapshot is accepted; it is the caller's contract to install an
	// equivalent plan — and post-CleanAfter-style recovery means the clean
	// plan is equivalent for the remaining attempts).
	quiet := fault.NewFunc(func(string, int, int) fault.Plan { return fault.Plan{} })
	resumed := collectOrFatal(t, context.Background(), Options{
		Sim: sim.Config{Seed: 888}, Fault: quiet, Runs: 2, Units: units, Workers: 2,
		Resilience: Resilience{MaxRetries: 1, BackoffBase: time.Millisecond},
		Checkpoint: path, Resume: true,
	})
	if !reflect.DeepEqual(resumed.Units, base.Units) {
		t.Fatal("resumed dataset differs from the uninterrupted baseline")
	}
}

// TestCheckpointRestoresPermanentFailure proves failed runs are durable
// state too: a resume from a snapshot holding a permanent failure neither
// re-simulates anything nor resurrects the dropped run.
func TestCheckpointRestoresPermanentFailure(t *testing.T) {
	units := shortUnits()[:1]
	doomed := fault.NewFunc(func(unit string, run, attempt int) fault.Plan {
		return fault.Plan{Crash: run == 0}
	})
	path := filepath.Join(t.TempDir(), "failed.ckpt")
	opts := Options{
		Sim: sim.Config{Seed: 888}, Fault: doomed, Runs: 2, Units: units, Workers: 1,
		Resilience: Resilience{MaxRetries: 1, MinRuns: 1, BackoffBase: time.Millisecond},
		Checkpoint: path,
	}
	first := collectOrFatal(t, context.Background(), opts)
	if !first.Degraded() {
		t.Fatal("run 0 should have been dropped")
	}

	// The resumed process's injector counts plan requests: zero means every
	// pair — including the failed one — came from the snapshot.
	var plans atomic.Int64
	counting := fault.NewFunc(func(string, int, int) fault.Plan {
		plans.Add(1)
		return fault.Plan{}
	})
	re := opts
	re.Fault = counting
	re.Resume = true
	second := collectOrFatal(t, context.Background(), re)
	if n := plans.Load(); n != 0 {
		t.Fatalf("resume simulated %d attempts, want 0 (all pairs were persisted)", n)
	}
	if !reflect.DeepEqual(second.Units, first.Units) || !reflect.DeepEqual(second.Provenance, first.Provenance) {
		t.Fatal("resumed degraded dataset differs from the interrupted one")
	}
}

// TestCheckpointAppendsInPlace pins the write path: a later record is
// appended to the checkpoint file the first record created, never written
// to a new file renamed over it.
func TestCheckpointAppendsInPlace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "inplace.ckpt")
	var first os.FileInfo
	var statErr error
	// Workers=1 completes pairs in order, so when run 1 asks for its
	// fault plan, run 0's record is on disk.
	probe := fault.NewFunc(func(unit string, run, attempt int) fault.Plan {
		if run == 1 && first == nil {
			first, statErr = os.Stat(path)
		}
		return fault.Plan{}
	})
	collectOrFatal(t, context.Background(), Options{
		Sim: sim.Config{Seed: 888}, Fault: probe, Runs: 2, Units: shortUnits()[:1], Workers: 1,
		Checkpoint: path,
	})
	if statErr != nil {
		t.Fatalf("no checkpoint after the first record: %v", statErr)
	}
	last, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(first, last) {
		t.Fatal("the second record replaced the checkpoint file instead of appending to it")
	}
	if last.Size() <= first.Size() {
		t.Fatalf("checkpoint did not grow: %d then %d bytes", first.Size(), last.Size())
	}
}

// TestCheckpointRejectsBadSnapshots covers the three typed rejections plus
// the option-validation guard.
func TestCheckpointRejectsBadSnapshots(t *testing.T) {
	units := shortUnits()[:1]
	path := filepath.Join(t.TempDir(), "c.ckpt")
	opts := Options{Sim: sim.Config{Seed: 888}, Runs: 1, Units: units, Workers: 1, Checkpoint: path}
	collectOrFatal(t, context.Background(), opts)

	// Corruption: flip one byte in the snapshot body.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x01
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	re := opts
	re.Resume = true
	var ce *checkpoint.CorruptError
	if _, err := CollectContext(context.Background(), re); !errors.As(err, &ce) {
		t.Fatalf("corrupt snapshot: err = %v, want *checkpoint.CorruptError", err)
	}

	// Staleness: the snapshot was written under a different seed, so its
	// fingerprint no longer matches the requested collection.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	stale := re
	stale.Sim.Seed = 999
	var me *checkpoint.MismatchError
	if _, err := CollectContext(context.Background(), stale); !errors.As(err, &me) {
		t.Fatalf("stale snapshot: err = %v, want *checkpoint.MismatchError", err)
	}

	// Resume without a checkpoint path is a configuration error.
	var oe *OptionError
	if _, err := CollectContext(context.Background(), Options{Resume: true}); !errors.As(err, &oe) {
		t.Fatalf("Resume without Checkpoint: err = %v, want *OptionError", err)
	}

	// A missing snapshot with Resume set is a fresh start, not an error.
	fresh := re
	fresh.Checkpoint = filepath.Join(t.TempDir(), "nonexistent.ckpt")
	collectOrFatal(t, context.Background(), fresh)
}

// TestCheckpointFingerprintSensitivity pins what the fingerprint does and
// does not cover: anything that changes per-run results must change it;
// assembly-only knobs must not.
func TestCheckpointFingerprintSensitivity(t *testing.T) {
	units := shortUnits()[:2]
	base := Options{Sim: sim.Config{Seed: 888}, Runs: 2, Units: units}
	fp := func(o Options) uint64 {
		t.Helper()
		v, err := o.CheckpointFingerprint()
		if err != nil {
			t.Fatalf("CheckpointFingerprint: %v", err)
		}
		return v
	}
	got := fp(base)
	if again := fp(base); again != got {
		t.Fatal("fingerprint is not stable across calls")
	}

	differs := map[string]Options{}
	o := base
	o.Sim.Seed = 889
	differs["seed"] = o
	o = base
	o.Runs = 3
	differs["runs"] = o
	o = base
	o.Units = units[:1]
	differs["units"] = o
	o = base
	o.Resilience.MaxRetries = 2
	differs["max retries"] = o
	o = base
	o.Fault = fault.New(fault.Config{Seed: 1, Crash: 0.5})
	differs["fault config"] = o
	o = base
	o.Sim.FastForward = true
	differs["fast-forward"] = o
	o = base
	o.Sim.Platform = soc.Midrange750G()
	differs["platform"] = o
	o = base
	o.Resilience.RunTimeout = time.Second
	differs["run timeout"] = o
	for what, opt := range differs {
		if fp(opt) == got {
			t.Errorf("changing %s did not change the fingerprint", what)
		}
	}

	// The platform is validated where it is resolved, so an invalid one
	// fails the pre-image, not only the collection.
	bad := base
	bad.Sim.Platform = soc.Snapdragon888HDK()
	bad.Sim.Platform.GPU.NumShaders = 0
	if _, err := bad.CheckpointCanonical(); err == nil {
		t.Error("CheckpointCanonical accepted an invalid platform")
	}

	// Assembly-only knobs leave per-run results untouched, so snapshots stay
	// valid across them — that is what lets a resume finish under a
	// different degradation policy.
	same := base
	same.Resilience.MinRuns = 1
	same.Resilience.FailFast = true
	same.Workers = 8
	if fp(same) != got {
		t.Fatal("assembly-only knobs must not invalidate a snapshot")
	}
}

// TestCheckpointCanonicalIsFingerprintPreimage pins the contract wider
// digests (the server's cache key) rely on: the canonical string is the
// exact byte stream the u64 fingerprint hashes, so hashing it with any
// function inherits the fingerprint's coverage.
func TestCheckpointCanonicalIsFingerprintPreimage(t *testing.T) {
	opts := Options{Sim: sim.Config{Seed: 888}, Runs: 2, Units: shortUnits()[:2]}
	canon, err := opts.CheckpointCanonical()
	if err != nil {
		t.Fatalf("CheckpointCanonical: %v", err)
	}
	if canon == "" {
		t.Fatal("canonical string is empty")
	}
	fp, err := opts.CheckpointFingerprint()
	if err != nil {
		t.Fatalf("CheckpointFingerprint: %v", err)
	}
	h := fnv.New64a()
	if _, err := h.Write([]byte(canon)); err != nil {
		t.Fatal(err)
	}
	if h.Sum64() != fp {
		t.Fatalf("FNV-64a(canonical) = %016x, want the fingerprint %016x", h.Sum64(), fp)
	}
}
