// Self-healing collection: per-(unit, run) retries with capped exponential
// backoff and deterministic jitter, per-attempt timeouts, trace-validity
// gating with repair as a last resort, MAD-based outlier-run rejection with
// automatic re-run, and graceful degradation to MinRuns of Runs — all
// recorded in the Dataset's provenance.
//
// The design mirrors the paper's measurement reality: Snapdragon Profiler
// sessions drop samples and runs vary enough that every benchmark is
// averaged over three runs. The simulator itself is deterministic per
// (unit, run) — independent of the attempt number — so whenever a faulted
// attempt is retried to a clean one, the recovered dataset is bit-identical
// to a fault-free collection. The chaos tests assert exactly that.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"mobilebench/internal/fault"
	"mobilebench/internal/par"
	"mobilebench/internal/profiler"
	"mobilebench/internal/sim"
	"mobilebench/internal/stats"
	"mobilebench/internal/workload"
	"mobilebench/internal/xrand"
)

// Resilience configures the self-healing collection path. The zero value
// preserves the historical behaviour: one attempt per run, no timeout,
// every run required. Outlier rejection is always armed, with thresholds
// that normal run-to-run jitter cannot trip.
type Resilience struct {
	// MaxRetries is how many extra attempts each (unit, run) gets after a
	// failed first attempt (0 = fail on the first error).
	MaxRetries int
	// RunTimeout bounds each attempt's wall-clock time; a hung run is
	// cancelled and counted as a failed attempt (0 = no timeout).
	RunTimeout time.Duration
	// BackoffBase is the delay before the first retry; it doubles per
	// attempt, is capped at 2 s, and carries a deterministic ±50% jitter
	// derived from (seed, unit, run, attempt). 0 selects 100 ms.
	BackoffBase time.Duration
	// FailFast aborts the whole collection on the first permanently
	// failed run instead of degrading or aggregating errors.
	FailFast bool
	// MinRuns accepts a unit once at least MinRuns of its Runs attempts
	// produced valid results, recording the shortfall in the provenance
	// (0 = every run is required).
	MinRuns int
}

// Resilience defaults and the outlier-rejection thresholds.
const (
	defaultBackoffBase = 100 * time.Millisecond
	backoffCap         = 2 * time.Second
	// outlierZ is the modified z-score (0.6745·|x−median|/MAD) above which
	// a run is declared an outlier.
	outlierZ = 3.5
	// outlierMinRelDev is the minimum relative deviation from the median
	// before a run can be flagged, the guard that keeps the ~1% natural
	// run-to-run jitter from ever triggering a re-run.
	outlierMinRelDev = 0.05
	// outlierSpreadTol flags the whole run set for re-collection when the
	// relative spread of a signature dimension exceeds it — the guard for
	// the 2-outliers-of-3 case, where a median vote would side with the
	// corrupted majority.
	outlierSpreadTol = 0.2
)

func (p Resilience) backoffBase() time.Duration {
	if p.BackoffBase <= 0 {
		return defaultBackoffBase
	}
	return p.BackoffBase
}

// RunError is one (unit, run) that failed permanently: every attempt its
// retry budget allowed errored, timed out, panicked or produced an
// unrepairable trace. Cause holds the last attempt's error.
type RunError struct {
	Unit    string
	Run     int
	Attempt int
	Cause   error
}

// Error implements error.
func (e *RunError) Error() string {
	return fmt.Sprintf("core: %s run %d failed permanently after attempt %d: %v",
		e.Unit, e.Run, e.Attempt, e.Cause)
}

// Unwrap exposes the last attempt's error to errors.Is/As.
func (e *RunError) Unwrap() error { return e.Cause }

// CollectError aggregates every permanently failed run of a collection
// (FailFast collections surface the first *RunError directly instead).
type CollectError struct {
	Runs []*RunError
}

// Error implements error.
func (e *CollectError) Error() string {
	if len(e.Runs) == 1 {
		return e.Runs[0].Error()
	}
	return fmt.Sprintf("core: %d runs failed permanently; first: %v", len(e.Runs), e.Runs[0])
}

// Unwrap exposes the individual run errors to errors.Is/As.
func (e *CollectError) Unwrap() []error {
	out := make([]error, len(e.Runs))
	for i, r := range e.Runs {
		out[i] = r
	}
	return out
}

// RunProvenance records how one (unit, run) was obtained.
type RunProvenance struct {
	// Run is the run index.
	Run int
	// Attempts is how many attempts were consumed in total.
	Attempts int
	// RepairedSamples is how many trace sample slots were salvaged by
	// truncation/gap interpolation instead of a clean re-run.
	RepairedSamples int
	// OutlierReruns is how many times this run was re-collected after
	// being rejected as a statistical outlier.
	OutlierReruns int
	// Dropped marks a run excluded from the average (MinRuns degradation).
	Dropped bool
	// Faults lists the transient failures encountered, in attempt order.
	Faults []string
	// TimingNotes and TimingDegraded carry the external timing backend's
	// health over the run (restarts, circuit-break fallback to the
	// in-process model). They describe the measuring process rather than
	// the measurement, so checkpoints do not persist them: a restored
	// (unit, run) reports none — the process that measured it already did.
	TimingNotes    []string
	TimingDegraded bool
}

// UnitProvenance records how one unit's run set was obtained; it is the
// Dataset's audit trail for Figures 1-7 under faults.
type UnitProvenance struct {
	// Unit is the benchmark name.
	Unit string
	// RunsRequested is Options.Runs; RunsUsed is how many runs the
	// average actually includes.
	RunsRequested, RunsUsed int
	// Runs holds the per-run records in run order.
	Runs []RunProvenance
}

// TotalAttempts sums the attempts across runs.
func (p UnitProvenance) TotalAttempts() int {
	n := 0
	for _, r := range p.Runs {
		n += r.Attempts
	}
	return n
}

// TotalRetries is how many attempts beyond the first-per-run were needed.
func (p UnitProvenance) TotalRetries() int {
	n := p.TotalAttempts() - len(p.Runs)
	if n < 0 {
		n = 0
	}
	return n
}

// TotalRepairedSamples sums the repaired sample slots across runs.
func (p UnitProvenance) TotalRepairedSamples() int {
	n := 0
	for _, r := range p.Runs {
		n += r.RepairedSamples
	}
	return n
}

// TotalOutlierReruns sums the outlier re-runs across runs.
func (p UnitProvenance) TotalOutlierReruns() int {
	n := 0
	for _, r := range p.Runs {
		n += r.OutlierReruns
	}
	return n
}

// Degraded reports whether the unit's result is anything less than a full
// set of clean runs: dropped runs, repaired (rather than re-run) traces, or
// runs answered by the timing backend's degradation fallback.
func (p UnitProvenance) Degraded() bool {
	if p.RunsUsed < p.RunsRequested {
		return true
	}
	for _, r := range p.Runs {
		if r.RepairedSamples > 0 || r.Dropped || r.TimingDegraded {
			return true
		}
	}
	return false
}

// TimingDegradedRuns counts the runs measured (at least partly) by the
// timing backend's in-process fallback after a circuit break.
func (p UnitProvenance) TimingDegradedRuns() int {
	n := 0
	for _, r := range p.Runs {
		if r.TimingDegraded {
			n++
		}
	}
	return n
}

// String renders a compact one-line summary ("3/3 runs, 7 attempts,
// 1 outlier re-run").
func (p UnitProvenance) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d/%d runs, %d attempts", p.Unit, p.RunsUsed, p.RunsRequested, p.TotalAttempts())
	if n := p.TotalOutlierReruns(); n > 0 {
		fmt.Fprintf(&b, ", %d outlier re-runs", n)
	}
	if n := p.TotalRepairedSamples(); n > 0 {
		fmt.Fprintf(&b, ", %d repaired samples", n)
	}
	if n := p.TimingDegradedRuns(); n > 0 {
		fmt.Fprintf(&b, ", %d runs on the degraded timing fallback", n)
	}
	return b.String()
}

// runState tracks one (unit, run) across attempts and outlier rounds.
type runState struct {
	res  *sim.Result
	prov RunProvenance
	next int       // next attempt number (monotonic across rounds)
	perm *RunError // set when the run failed permanently
}

// collectRun drives one (unit, run) to a valid result or a permanent
// failure, consuming up to c.pol.MaxRetries+1 attempts numbered from
// st.next. Attempt numbering is monotonic across invocations, so outlier
// re-runs keep drawing fresh fault-injection decisions.
//
// The function only returns a non-nil error for conditions that must stop
// the whole collection (context cancellation, or any permanent failure
// under FailFast); an ordinary permanent failure is recorded in st.perm
// and reported as aggregate CollectError later, letting sibling runs
// finish first.
func (c *collection) collectRun(ctx context.Context, eng *sim.Engine, w workload.Workload, run int, st *runState) error {
	var lastCorrupt *sim.Result
	var lastErr error
	budget := c.pol.MaxRetries + 1
	for a := 0; a < budget; a++ {
		attempt := st.next
		st.next++
		st.prov.Attempts++

		res, err := runAttempt(ctx, eng, c.fault.PlanFor(w.Name, run, attempt), w, run, attempt, c.pol.RunTimeout)
		if err == nil && res.Trace != nil {
			if verr := res.Trace.Validate(); verr != nil {
				lastCorrupt, err = res, verr
			}
		}
		if err == nil {
			st.res = res
			st.perm = nil
			recordTiming(&st.prov, res)
			return nil
		}
		if cerr := ctx.Err(); cerr != nil {
			// The collection itself was cancelled; not a run failure.
			return cerr
		}
		lastErr = err
		st.prov.Faults = append(st.prov.Faults, fmt.Sprintf("attempt %d: %v", attempt, err))
		if a+1 < budget {
			if werr := sleepBackoff(ctx, c.pol, c.sim.Seed, w.Name, run, attempt); werr != nil {
				return werr
			}
		}
	}
	// Retry budget exhausted. If the most recent failure left a corrupted
	// but salvageable trace, repair it instead of giving up: truncate
	// dropped tails back into alignment and interpolate NaN gaps.
	if lastCorrupt != nil {
		stats, rerr := lastCorrupt.Trace.Repair()
		if rerr == nil {
			if verr := lastCorrupt.Trace.Validate(); verr == nil {
				st.res = lastCorrupt
				st.perm = nil
				st.prov.RepairedSamples += stats.Total()
				st.prov.Faults = append(st.prov.Faults,
					fmt.Sprintf("repaired trace in place: %d truncated, %d interpolated samples",
						stats.TruncatedSamples, stats.InterpolatedSamples))
				recordTiming(&st.prov, lastCorrupt)
				return nil
			}
		}
	}
	st.perm = &RunError{Unit: w.Name, Run: run, Attempt: st.next - 1, Cause: lastErr}
	if c.pol.FailFast {
		return st.perm
	}
	return nil
}

// recordTiming folds a successful attempt's timing-backend health report
// into the run's provenance.
func recordTiming(prov *RunProvenance, res *sim.Result) {
	if res == nil {
		return
	}
	prov.TimingNotes = append(prov.TimingNotes, res.TimingNotes...)
	if res.TimingDegraded {
		prov.TimingDegraded = true
	}
}

// runAttempt executes one attempt with its own timeout and panic recovery:
// a panicking worker (injected or real) surfaces as an error instead of
// killing the process.
func runAttempt(ctx context.Context, eng *sim.Engine, plan fault.Plan, w workload.Workload, run, attempt int, timeout time.Duration) (res *sim.Result, err error) {
	actx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &par.PanicError{Job: run, Value: r, Stack: debug.Stack()}
		}
	}()
	res, err = faultedRun(actx, eng, plan, w, run, attempt)
	if err != nil && actx.Err() != nil && ctx.Err() == nil {
		// The attempt's own deadline fired: report it as such even when
		// the engine surfaced the bare context error.
		err = fmt.Errorf("core: run exceeded the %v run-timeout: %w", timeout, err)
	}
	return res, err
}

// faultedRun applies the attempt's fault plan around one clean simulation,
// the way a flaky profiling session fails around a deterministic
// benchmark: crash and abort fail the attempt, panic panics it, hang
// stalls it under its context, and skew, drop and NaN damage the finished
// measurement. The simulation itself never sees the plan, so every
// attempt that completes simulated exactly what an unfaulted one does.
func faultedRun(ctx context.Context, eng *sim.Engine, plan fault.Plan, w workload.Workload, run, attempt int) (*sim.Result, error) {
	switch {
	case plan.Crash:
		return nil, &fault.InjectedError{Mode: fault.ModeCrash, Unit: w.Name, Run: run, Attempt: attempt}
	case plan.AbortFrac > 0:
		return nil, &fault.InjectedError{Mode: fault.ModeAbort, Unit: w.Name, Run: run, Attempt: attempt, Frac: plan.AbortFrac}
	case plan.Panic:
		panic(fmt.Sprintf("fault: injected panic in %s run %d attempt %d", w.Name, run, attempt))
	case plan.HangSec > 0:
		// A hung profiling session; the attempt's run-timeout can cut it.
		t := time.NewTimer(time.Duration(plan.HangSec * float64(time.Second)))
		defer t.Stop()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
	}
	res, err := eng.RunContext(ctx, w, run)
	if err != nil {
		return nil, err
	}
	// Skew scales both the trace and the intensity aggregates: a
	// self-consistent but non-representative run that only outlier
	// rejection can catch. Drop and NaN damage the trace, so validation
	// (and, failing that, repair) has real work to do.
	if f := plan.SkewFactor; f != 0 && f != 1 {
		res.Agg = skewAgg(res.Agg, f)
	}
	plan.Corrupt(res.Trace)
	return res, nil
}

// skewAgg scales the intensity aggregates of a run by f, leaving the
// extensive run identity (runtime) and the CPU temperature peak untouched.
// It models a run whose whole measurement session was miscalibrated by a
// constant factor.
func skewAgg(a sim.Aggregates, f float64) sim.Aggregates {
	for _, p := range a.Fields() {
		if p != &a.RuntimeSec && p != &a.PeakCPUTempC {
			*p *= f
		}
	}
	return a
}

// sleepBackoff waits the capped-exponential, deterministically jittered
// retry delay, aborting promptly if the collection is cancelled.
func sleepBackoff(ctx context.Context, pol Resilience, seed uint64, unit string, run, attempt int) error {
	// Jitter derived from (seed, unit, run, attempt): the schedule is
	// decorrelated across runs yet perfectly reproducible.
	rng := xrand.New(seed).Split(xrand.HashString(unit)).Split(uint64(run) + 1).Split(uint64(attempt) + 0x5eed)
	t := time.NewTimer(xrand.Backoff(pol.backoffBase(), backoffCap, attempt, rng))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// assembleUnit turns a unit's per-run states into the averaged result:
// MinRuns degradation for permanently failed runs, MAD-based outlier
// rejection with automatic re-runs, then the deterministic run-order
// average. The returned provenance documents every deviation from a
// clean Runs-of-Runs collection.
func (c *collection) assembleUnit(ctx context.Context, eng *sim.Engine, w workload.Workload, states []*runState) (*sim.Result, UnitProvenance, error) {
	runs := len(states)
	prov := UnitProvenance{Unit: w.Name, RunsRequested: runs}

	// Permanent failures: degrade to MinRuns or give up.
	var failed []*RunError
	live := 0
	for _, st := range states {
		if st.perm != nil {
			failed = append(failed, st.perm)
		} else {
			live++
		}
	}
	if len(failed) > 0 {
		if c.pol.MinRuns <= 0 || live < c.pol.MinRuns {
			return nil, prov, &CollectError{Runs: failed}
		}
		for _, st := range states {
			if st.perm != nil {
				st.prov.Dropped = true
			}
		}
	}

	// Outlier rejection: re-run statistically aberrant runs until the set
	// is internally consistent (or the round budget is spent). Attempt
	// numbering stays monotonic, so with a fault injector that goes clean
	// after N attempts this provably converges.
	for round := 0; round < c.pol.MaxRetries+1; round++ {
		flagged := detectOutlierRuns(states)
		if len(flagged) == 0 {
			break
		}
		for _, ri := range flagged {
			st := states[ri]
			prevRes := st.res
			st.prov.OutlierReruns++
			if err := c.collectRun(ctx, eng, w, ri, st); err != nil {
				return nil, prov, err
			}
			if st.perm != nil {
				// The re-run failed permanently; the original result
				// was at least self-consistent, so keep it rather
				// than losing the run.
				st.res = prevRes
				st.perm = nil
				st.prov.Faults = append(st.prov.Faults,
					fmt.Sprintf("outlier re-run of run %d failed; keeping original measurement", ri))
			}
		}
	}

	// Deterministic run-order average over the surviving runs.
	results := make([]*sim.Result, 0, runs)
	for _, st := range states {
		prov.Runs = append(prov.Runs, st.prov)
		if st.perm == nil && st.res != nil {
			results = append(results, st.res)
		}
	}
	prov.RunsUsed = len(results)
	avg, err := sim.AverageResults(w.Name, results)
	if err != nil {
		return nil, prov, fmt.Errorf("core: characterizing %s: %w", w.Name, err)
	}
	return avg, prov, nil
}

// outlierSignature reduces one run to the scalar dimensions the MAD test
// screens: headline aggregates plus key trace means, so both a skewed
// aggregate and a skewed counter stream register.
func outlierSignature(r *sim.Result) []float64 {
	dims := []float64{r.Agg.IPC, r.Agg.AvgCPULoad, r.Agg.RuntimeSec, r.Agg.AvgUsedMemFrac}
	for _, m := range []string{profiler.MetricIPC, profiler.MetricCPULoad, profiler.MetricGPULoad} {
		v := 0.0
		if s := r.Trace.Series(m); s != nil {
			v = s.Mean()
		}
		dims = append(dims, v)
	}
	return dims
}

// detectOutlierRuns returns the run indices to re-collect. A run is an
// individual outlier when, in any signature dimension, it deviates from
// the run-set median by more than outlierMinRelDev relatively AND its
// modified z-score (0.6745·dev/MAD) exceeds outlierZ. When any dimension's
// relative spread exceeds outlierSpreadTol the individual flags are
// distrusted and every live run is re-collected — the median vote breaks
// when a majority of the runs is corrupted.
func detectOutlierRuns(states []*runState) []int {
	idx := make([]int, 0, len(states))
	for i, st := range states {
		if st.perm == nil && st.res != nil {
			idx = append(idx, i)
		}
	}
	if len(idx) < 3 {
		return nil
	}
	sigs := make([][]float64, len(idx))
	for k, i := range idx {
		sigs[k] = outlierSignature(states[i].res)
	}
	ndim := len(sigs[0])

	flagged := make(map[int]bool)
	spreadSuspect := false
	for d := 0; d < ndim; d++ {
		col := make([]float64, len(idx))
		for k := range idx {
			col[k] = sigs[k][d]
		}
		med := stats.Median(col)
		scale := math.Abs(med)
		if scale < 1e-9 || math.IsNaN(med) || math.IsInf(med, 0) {
			continue
		}
		devs := make([]float64, len(col))
		lo, hi := col[0], col[0]
		for k, v := range col {
			devs[k] = math.Abs(v - med)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		mad := stats.Median(devs)
		for k, dev := range devs {
			if dev/scale <= outlierMinRelDev {
				continue
			}
			if mad > 0 && 0.6745*dev/mad > outlierZ {
				flagged[idx[k]] = true
			} else if mad == 0 {
				// The other runs agree exactly; any relative deviation
				// beyond the guard is an outlier by itself.
				flagged[idx[k]] = true
			}
		}
		if (hi-lo)/scale > outlierSpreadTol {
			spreadSuspect = true
		}
	}
	if spreadSuspect {
		// Runs disagree beyond tolerance. The median vote is unreliable
		// here — with two corrupted runs out of three the median lands on
		// the corrupt values and flags the clean run — so re-collect the
		// whole set instead of trusting the individual flags. Clean runs
		// re-run deterministically to the same values, so this never
		// changes an already-consistent result.
		return idx
	}
	out := make([]int, 0, len(flagged))
	for i := range flagged {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}
