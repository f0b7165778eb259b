// Crash-safe collection: the glue between the collection fan-out and
// internal/checkpoint. Every completed (unit, run) is appended durably to
// the collection's record log, and a resumed collection restores those
// pairs bit-for-bit — including the monotonic attempt counter, so
// post-restore outlier re-runs draw the same fault-injection decisions an
// uninterrupted collection would.
package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"strings"
	"sync"

	"mobilebench/internal/checkpoint"
	"mobilebench/internal/fault"
	"mobilebench/internal/sim"
	"mobilebench/internal/workload"
)

// collection is Options resolved once, every default filled in: what
// CollectContext runs, and what canonical names.
type collection struct {
	sim   sim.Config
	runs  int
	units []workload.Workload
	fault *fault.Injector
	pol   Resilience
}

// resolve validates the options and fills in their defaults, building
// no engine.
func (o Options) resolve() (*collection, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	cfg, err := o.Sim.Resolve()
	if err != nil {
		return nil, err
	}
	return &collection{sim: cfg, runs: o.runCount(), units: o.CollectUnits(), fault: o.Fault, pol: o.Resilience}, nil
}

// canonical renders the checkpoint fingerprint's pre-image. It binds a
// checkpoint to everything that shapes per-run results: the run count,
// the simulator's segment (sim.Config.WriteCanonical: seed, sampling
// constants, platform), the fault injector, the retry knobs that decide
// which attempt of a faulted run finally lands (MaxRetries, RunTimeout)
// and the unit list. Assembly-only knobs (MinRuns, FailFast, backoff
// pacing) are deliberately excluded: they do not alter what a completed
// (unit, run) measured, so restored records stay exact under them.
// Injectors built with fault.NewFunc (the test seam) hash as their zero
// Config; tests resuming across processes must install an equivalent
// plan function themselves.
func (c *collection) canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mbckpt-v1|runs=%d", c.runs)
	c.sim.WriteCanonical(&b)
	if c.fault != nil {
		fmt.Fprintf(&b, "|fault=%+v", c.fault.Config())
	}
	fmt.Fprintf(&b, "|retries=%d|runtimeout=%d", c.pol.MaxRetries, int64(c.pol.RunTimeout))
	for _, u := range c.units {
		fmt.Fprintf(&b, "|u=%q", u.Name)
	}
	return b.String()
}

// fingerprint is the u64 every checkpoint record carries: FNV-64a of
// canonical.
func (c *collection) fingerprint() uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(c.canonical()))
	return h.Sum64()
}

// CheckpointFingerprint returns the fingerprint a checkpoint written for
// these options carries — the value Load verifies before restoring a
// single record. Exposed for tooling and tests that inspect snapshots.
func (o Options) CheckpointFingerprint() (uint64, error) {
	c, err := o.resolve()
	if err != nil {
		return 0, err
	}
	return c.fingerprint(), nil
}

// CheckpointCanonical returns the canonical options string the checkpoint
// fingerprint hashes — the fingerprint's full pre-image. Callers that
// need collision resistance beyond a checkpoint record's u64 (the
// server's content-addressed cache key) hash this string with a wide
// cryptographic digest instead of folding the 64-bit fingerprint.
func (o Options) CheckpointCanonical() (string, error) {
	c, err := o.resolve()
	if err != nil {
		return "", err
	}
	return c.canonical(), nil
}

// collectCheckpoint is the per-collection checkpoint state: the records
// restored from a previous process and the log persisting new ones.
type collectCheckpoint struct {
	path        string
	fingerprint uint64
	restored    *checkpoint.Snapshot
	mu          sync.Mutex // serializes opening the log and appending to it
	log         *checkpoint.Log
}

// openCollectCheckpoint prepares checkpointing for a collection. With
// resume set, the log at path is reopened and every record verified
// (framing, schema version, options fingerprint — each failing with its
// typed error); a missing file is simply a fresh start.
func openCollectCheckpoint(path string, resume bool, fingerprint uint64) (*collectCheckpoint, error) {
	cc := &collectCheckpoint{path: path, fingerprint: fingerprint}
	if resume {
		var err error
		if cc.log, cc.restored, err = checkpoint.Resume(path, fingerprint); err != nil {
			return nil, err
		}
	}
	return cc, nil
}

// close releases the log file; every record is already durable.
func (cc *collectCheckpoint) close() {
	if cc != nil && cc.log != nil {
		_ = cc.log.Close()
	}
}

// restore loads the persisted record for (unit, run) into st, reporting
// whether the pair can be skipped. A failed record is restored as the
// permanent RunError it was, so MinRuns degradation and error aggregation
// behave exactly as they did in the interrupted process.
func (cc *collectCheckpoint) restore(unit string, run int, st *runState) bool {
	if cc == nil || cc.restored == nil {
		return false
	}
	rec := cc.restored.Find(unit, run)
	if rec == nil {
		return false
	}
	if rec.Failed {
		st.res = nil
		st.perm = &RunError{Unit: unit, Run: run, Attempt: rec.FailedAttempt, Cause: errors.New(rec.FailedCause)}
	} else {
		if rec.Result == nil || rec.Result.Trace == nil {
			return false
		}
		st.res = rec.Result
		st.perm = nil
	}
	st.next = rec.NextAttempt
	st.prov = RunProvenance{
		Run:             run,
		Attempts:        rec.Attempts,
		RepairedSamples: rec.RepairedSamples,
		OutlierReruns:   rec.OutlierReruns,
		Faults:          append([]string(nil), rec.Faults...),
	}
	return true
}

// record appends the completed (unit, run) state to the log; after it
// returns, a killed process can resume past this pair. A fresh collection
// replaces any stale file at the path with its first record.
func (cc *collectCheckpoint) record(unit string, run int, st *runState) error {
	if cc == nil {
		return nil
	}
	rec := checkpoint.RunRecord{
		Unit:            unit,
		Run:             run,
		NextAttempt:     st.next,
		Attempts:        st.prov.Attempts,
		RepairedSamples: st.prov.RepairedSamples,
		OutlierReruns:   st.prov.OutlierReruns,
		Faults:          st.prov.Faults,
	}
	if st.perm != nil {
		rec.Failed = true
		rec.FailedAttempt = st.perm.Attempt
		rec.FailedCause = st.perm.Cause.Error()
	} else {
		rec.Result = st.res
	}
	payload := checkpoint.EncodeRecord(cc.fingerprint, &rec)
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.log == nil {
		//mblint:ignore mutexhold the first record creates the log before any other worker may append to it; a one-time unlink and open
		if err := os.Remove(cc.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		//mblint:ignore mutexhold opening the log once is part of the first record's critical section, as the unlink above
		lg, err := checkpoint.OpenLog(cc.path)
		if err != nil {
			return err
		}
		cc.log = lg
	}
	return cc.log.Append(payload)
}
