package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"mobilebench/internal/fault"
	"mobilebench/internal/par"
	"mobilebench/internal/sim"
)

// chaosPolicy is the resilience policy the chaos tests run under: enough
// retries to outlast CleanAfter, a timeout generous enough that legitimate
// runs never trip it even under the race detector's ~10x slowdown, and a
// near-zero backoff so the suite stays fast.
func chaosPolicy() Resilience {
	return Resilience{
		MaxRetries:  4,
		RunTimeout:  30 * time.Second,
		BackoffBase: time.Millisecond,
	}
}

// TestChaosBitIdenticalRecovery is the acceptance test of the fault work:
// with crash/abort/hang/panic/drop/nan/skew faults injected, retries and
// outlier re-runs must recover a dataset bit-identical to the fault-free
// baseline — for any worker count.
func TestChaosBitIdenticalRecovery(t *testing.T) {
	units := shortUnits()[:2]
	base, err := CollectContext(context.Background(), Options{
		Sim: sim.Config{Seed: 888}, Runs: 3, Units: units, Workers: 1,
	})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	inj := fault.New(fault.Config{
		Seed:  1234,
		Crash: 0.25, Abort: 0.2, Hang: 0.1, Panic: 0.1,
		Drop: 0.2, NaN: 0.2, Skew: 0.25,
		// A short stall: long enough to exercise the hang path, short
		// enough that the run still finishes inside the run-timeout
		// (TestRunTimeoutConvertsHang covers the timeout-kills-hang path).
		HangSec:    0.5,
		CleanAfter: 2,
	})
	for _, workers := range []int{1, 4} {
		chaos, err := CollectContext(context.Background(), Options{
			Sim:        sim.Config{Seed: 888, Fault: inj},
			Runs:       3,
			Units:      units,
			Workers:    workers,
			Resilience: chaosPolicy(),
		})
		if err != nil {
			t.Fatalf("workers=%d chaos collection failed: %v", workers, err)
		}
		if !reflect.DeepEqual(chaos.Units, base.Units) {
			t.Fatalf("workers=%d: recovered dataset is not bit-identical to the fault-free baseline", workers)
		}
		if chaos.Degraded() {
			t.Fatalf("workers=%d: recovery succeeded yet dataset marked degraded: %+v", workers, chaos.Provenance)
		}
		attempts, runs := 0, 0
		for _, p := range chaos.Provenance {
			attempts += p.TotalAttempts()
			runs += p.RunsUsed
		}
		if attempts <= runs {
			t.Fatalf("workers=%d: %d attempts for %d runs — no faults actually fired", workers, attempts, runs)
		}
	}
}

// TestChaosPanicBecomesRunError asserts a panicking worker surfaces as a
// typed RunError instead of killing the process.
func TestChaosPanicBecomesRunError(t *testing.T) {
	inj := fault.NewFunc(func(unit string, run, attempt int) fault.Plan {
		return fault.Plan{PanicFrac: 0.5}
	})
	_, err := CollectContext(context.Background(), Options{
		Sim:   sim.Config{Fault: inj},
		Runs:  1,
		Units: shortUnits()[:1],
	})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want a *RunError in the chain", err)
	}
	var pe *par.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("RunError cause = %v, want a *par.PanicError", re.Cause)
	}
	if !strings.Contains(pe.Error(), "injected panic") {
		t.Fatalf("panic error %q does not carry the injected panic value", pe.Error())
	}
}

// TestCancelDuringBackoff asserts cancellation interrupts a retry backoff
// promptly instead of sleeping it out.
func TestCancelDuringBackoff(t *testing.T) {
	inj := fault.NewFunc(func(unit string, run, attempt int) fault.Plan {
		return fault.Plan{Crash: true}
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := CollectContext(ctx, Options{
		Sim:   sim.Config{Fault: inj},
		Runs:  1,
		Units: shortUnits()[:1],
		Resilience: Resilience{
			MaxRetries:  5,
			BackoffBase: 10 * time.Second, // capped to 2 s, still >> the cancel delay
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("cancellation took %v; backoff sleep was not interrupted", d)
	}
}

// TestRunTimeoutConvertsHang asserts a hung run is cancelled by the per-run
// timeout and reported as such.
func TestRunTimeoutConvertsHang(t *testing.T) {
	inj := fault.NewFunc(func(unit string, run, attempt int) fault.Plan {
		return fault.Plan{HangSec: 60}
	})
	start := time.Now()
	_, err := CollectContext(context.Background(), Options{
		Sim:   sim.Config{Fault: inj},
		Runs:  1,
		Units: shortUnits()[:1],
		Resilience: Resilience{
			RunTimeout:  100 * time.Millisecond,
			BackoffBase: time.Millisecond,
		},
	})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if !strings.Contains(re.Cause.Error(), "run-timeout") {
		t.Fatalf("cause = %v, want a run-timeout diagnosis", re.Cause)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("timed-out collection took %v; hang was not cancelled", d)
	}
}

// TestMinRunsDegradation asserts a permanently failing run degrades the unit
// to the surviving runs — recorded in provenance — instead of failing the
// collection.
func TestMinRunsDegradation(t *testing.T) {
	inj := fault.NewFunc(func(unit string, run, attempt int) fault.Plan {
		if run == 1 {
			return fault.Plan{Crash: true}
		}
		return fault.Plan{}
	})
	ds, err := CollectContext(context.Background(), Options{
		Sim:   sim.Config{Fault: inj},
		Runs:  3,
		Units: shortUnits()[:1],
		Resilience: Resilience{
			MaxRetries:  1,
			BackoffBase: time.Millisecond,
			MinRuns:     2,
		},
	})
	if err != nil {
		t.Fatalf("degraded collection failed outright: %v", err)
	}
	p, ok := ds.ProvenanceOf(ds.Units[0].Workload.Name)
	if !ok {
		t.Fatal("no provenance recorded")
	}
	if p.RunsUsed != 2 || p.RunsRequested != 3 {
		t.Fatalf("RunsUsed/RunsRequested = %d/%d, want 2/3", p.RunsUsed, p.RunsRequested)
	}
	if !p.Runs[1].Dropped {
		t.Fatal("run 1 not marked dropped")
	}
	if !ds.Degraded() {
		t.Fatal("dataset with a dropped run not marked degraded")
	}
}

// TestStrictPolicyFailsCollection asserts the zero Resilience keeps the
// historical strict contract: one attempt, a permanent failure fails
// collection with an aggregate *CollectError.
func TestStrictPolicyFailsCollection(t *testing.T) {
	inj := fault.NewFunc(func(unit string, run, attempt int) fault.Plan {
		if run == 0 {
			return fault.Plan{Crash: true}
		}
		return fault.Plan{}
	})
	_, err := CollectContext(context.Background(), Options{
		Sim:   sim.Config{Fault: inj},
		Runs:  2,
		Units: shortUnits()[:2],
	})
	var ce *CollectError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CollectError", err)
	}
	if len(ce.Runs) != 2 {
		t.Fatalf("CollectError aggregates %d runs, want 2 (run 0 of each unit)", len(ce.Runs))
	}
	for _, re := range ce.Runs {
		if re.Run != 0 {
			t.Fatalf("unexpected failed run %d", re.Run)
		}
		var ie *fault.InjectedError
		if !errors.As(re, &ie) || ie.Mode != fault.ModeCrash {
			t.Fatalf("cause = %v, want an injected crash", re.Cause)
		}
	}
}

// TestFailFastAbortsEarly asserts FailFast surfaces the first RunError
// directly and cancels sibling jobs.
func TestFailFastAbortsEarly(t *testing.T) {
	inj := fault.NewFunc(func(unit string, run, attempt int) fault.Plan {
		return fault.Plan{Crash: true}
	})
	_, err := CollectContext(context.Background(), Options{
		Sim:        sim.Config{Fault: inj},
		Runs:       3,
		Units:      shortUnits()[:2],
		Workers:    2,
		Resilience: Resilience{FailFast: true, BackoffBase: time.Millisecond},
	})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want the first *RunError directly", err)
	}
	var ce *CollectError
	if errors.As(err, &ce) {
		t.Fatal("FailFast should not aggregate into a CollectError")
	}
}

// TestOutlierSkewRerun asserts a self-consistent but skewed run — the case
// trace validation cannot catch — is detected by the MAD screen, re-run, and
// the final dataset matches the fault-free baseline bit for bit.
func TestOutlierSkewRerun(t *testing.T) {
	units := shortUnits()[:1]
	base, err := CollectContext(context.Background(), Options{
		Sim: sim.Config{}, Runs: 3, Units: units,
	})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	for name, skewRuns := range map[string][]int{
		"one-of-three": {1},
		"two-of-three": {0, 2}, // median vote inconclusive; spread check must fire
	} {
		inj := fault.NewFunc(func(unit string, run, attempt int) fault.Plan {
			if attempt == 0 {
				for _, r := range skewRuns {
					if run == r {
						return fault.Plan{SkewFactor: 1.8}
					}
				}
			}
			return fault.Plan{}
		})
		chaos, err := CollectContext(context.Background(), Options{
			Sim:        sim.Config{Fault: inj},
			Runs:       3,
			Units:      units,
			Resilience: Resilience{MaxRetries: 2, BackoffBase: time.Millisecond},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(chaos.Units, base.Units) {
			t.Fatalf("%s: dataset after outlier re-run differs from baseline", name)
		}
		p := chaos.Provenance[0]
		if p.TotalOutlierReruns() == 0 {
			t.Fatalf("%s: no outlier re-runs recorded; the skewed run went undetected", name)
		}
	}
}

// TestTraceRepairLastResort asserts that when every attempt yields a
// corrupted trace, the trace is repaired in place rather than failing the
// run, and the repair is recorded as degradation.
func TestTraceRepairLastResort(t *testing.T) {
	inj := fault.NewFunc(func(unit string, run, attempt int) fault.Plan {
		return fault.Plan{NaNFrac: 0.01}
	})
	ds, err := CollectContext(context.Background(), Options{
		Sim:        sim.Config{Fault: inj},
		Runs:       1,
		Units:      shortUnits()[:1],
		Resilience: Resilience{MaxRetries: 1, BackoffBase: time.Millisecond},
	})
	if err != nil {
		t.Fatalf("repairable collection failed: %v", err)
	}
	p := ds.Provenance[0]
	if p.TotalRepairedSamples() == 0 {
		t.Fatal("no repaired samples recorded")
	}
	if !ds.Degraded() {
		t.Fatal("repaired dataset not marked degraded")
	}
	// The repaired trace must be fully usable downstream.
	if err := ds.Units[0].Trace.Validate(); err != nil {
		t.Fatalf("repaired trace still invalid: %v", err)
	}
	for _, m := range ds.Units[0].Trace.Metrics() {
		for i, v := range ds.Units[0].Trace.Series(m).Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("series %s sample %d still non-finite after repair", m, i)
			}
		}
	}
}

// TestOptionsValidate covers the up-front option screen.
func TestOptionsValidate(t *testing.T) {
	units := shortUnits()[:2]
	cases := []struct {
		name  string
		opts  Options
		field string
	}{
		{"negative runs", Options{Runs: -1}, "Runs"},
		{"negative workers", Options{Workers: -2}, "Workers"},
		{"nan tick", Options{Sim: sim.Config{TickSec: math.NaN()}}, "Sim.TickSec"},
		{"negative tick", Options{Sim: sim.Config{TickSec: -0.1}}, "Sim.TickSec"},
		{"negative retries", Options{Resilience: Resilience{MaxRetries: -1}}, "Resilience.MaxRetries"},
		{"negative timeout", Options{Resilience: Resilience{RunTimeout: -time.Second}}, "Resilience.RunTimeout"},
		{"minruns above runs", Options{Runs: 2, Resilience: Resilience{MinRuns: 3}}, "Resilience.MinRuns"},
		{"duplicate units", Options{Units: append(units[:1:1], units[0])}, "Units"},
	}
	for _, tc := range cases {
		err := tc.opts.Validate()
		var oe *OptionError
		if !errors.As(err, &oe) {
			t.Fatalf("%s: err = %v, want *OptionError", tc.name, err)
		}
		if oe.Field != tc.field {
			t.Fatalf("%s: field = %q, want %q", tc.name, oe.Field, tc.field)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
	// CollectContext must refuse invalid options before simulating anything.
	if _, err := CollectContext(context.Background(), Options{Runs: -1}); err == nil {
		t.Fatal("CollectContext accepted invalid options")
	}
}
