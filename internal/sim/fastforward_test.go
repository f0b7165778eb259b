package sim

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"mobilebench/internal/profiler"
	"mobilebench/internal/workload"
)

// The differential suite: every bundled analysis unit simulated twice — once
// on the exact per-tick path and once with phase fast-forwarding — and the
// aggregate drift pinned per metric. The tolerances encode the accepted
// approximation error of the fast-forward estimator (see DESIGN.md §11):
// tiled load/power/memory metrics replay the detected limit cycle and stay
// essentially exact, while the sampled counter rates (IPC, MPKI) carry both
// sampling noise and a systematic bias from decimated cache warm-up.
const (
	// ffTolLoad bounds relative drift on utilization, power, energy and
	// memory aggregates, which fast-forwarding tiles from exact ticks.
	ffTolLoad = 0.02
	// ffTolRate bounds relative drift on IPC and the derived instruction
	// count. Decimated refresh stops slow cache warm-up, so fast-forwarded
	// runs sit slightly cold relative to the exact path.
	ffTolRate = 0.15
	// ffTolMPKI bounds relative drift on the cache/branch miss rates. The
	// same warm-up deficit hits the miss counts harder than IPC because
	// they sit in the numerator of a small rate: the worst bundled unit
	// (Antutu CPU branch misses) drifts 23%.
	ffTolMPKI = 0.25
	// ffLoadFloor is the absolute utilization below which cluster-load
	// drift is not checked: a 0.001 absolute wobble on a 3%-loaded
	// cluster is measurement noise, not estimator error.
	ffLoadFloor = 0.05
)

func relDrift(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 0 {
		return d / m
	}
	return 0
}

func checkDrift(t *testing.T, unit, metric string, ff, exact, tol float64) {
	t.Helper()
	if d := relDrift(ff, exact); d > tol {
		t.Errorf("%s: %s drift %.4f > %.2f (ff %.6g exact %.6g)", unit, metric, d, tol, ff, exact)
	}
}

func TestFastForwardDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite simulates every unit twice")
	}
	exact := MustNew(Config{})
	ff := MustNew(Config{FastForward: true})
	for _, u := range workload.AnalysisUnits() {
		u := u
		t.Run(u.Name, func(t *testing.T) {
			re, err := exact.Run(u, 0)
			if err != nil {
				t.Fatal(err)
			}
			rf, err := ff.Run(u, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Fast-forwarding replaces tick execution, never tick
			// emission: the trace shape must be identical.
			if re.Trace.Samples != rf.Trace.Samples {
				t.Fatalf("sample count diverged: exact %d ff %d", re.Trace.Samples, rf.Trace.Samples)
			}
			if re.Trace.NumMetrics() != rf.Trace.NumMetrics() {
				t.Fatalf("metric count diverged: exact %d ff %d", re.Trace.NumMetrics(), rf.Trace.NumMetrics())
			}
			if re.Agg.RuntimeSec != rf.Agg.RuntimeSec {
				t.Fatalf("runtime diverged: exact %g ff %g", re.Agg.RuntimeSec, rf.Agg.RuntimeSec)
			}
			a, b := rf.Agg, re.Agg
			checkDrift(t, u.Name, "IPC", a.IPC, b.IPC, ffTolRate)
			checkDrift(t, u.Name, "InstrCount", a.InstrCount, b.InstrCount, ffTolRate)
			checkDrift(t, u.Name, "CacheMPKI", a.CacheMPKI, b.CacheMPKI, ffTolMPKI)
			checkDrift(t, u.Name, "BranchMPKI", a.BranchMPKI, b.BranchMPKI, ffTolMPKI)
			checkDrift(t, u.Name, "AvgCPULoad", a.AvgCPULoad, b.AvgCPULoad, ffTolLoad)
			checkDrift(t, u.Name, "AvgGPULoad", a.AvgGPULoad, b.AvgGPULoad, ffTolLoad)
			checkDrift(t, u.Name, "AvgShadersBusy", a.AvgShadersBusy, b.AvgShadersBusy, ffTolLoad)
			checkDrift(t, u.Name, "AvgGPUBusBusy", a.AvgGPUBusBusy, b.AvgGPUBusBusy, ffTolLoad)
			checkDrift(t, u.Name, "AvgAIELoad", a.AvgAIELoad, b.AvgAIELoad, ffTolLoad)
			checkDrift(t, u.Name, "AvgUsedMemMB", a.AvgUsedMemMB, b.AvgUsedMemMB, ffTolLoad)
			checkDrift(t, u.Name, "PeakUsedMemMB", a.PeakUsedMemMB, b.PeakUsedMemMB, ffTolLoad)
			checkDrift(t, u.Name, "AvgPowerW", a.AvgPowerW, b.AvgPowerW, ffTolLoad)
			checkDrift(t, u.Name, "EnergyJ", a.EnergyJ, b.EnergyJ, ffTolLoad)
			checkDrift(t, u.Name, "PeakCPUTempC", a.PeakCPUTempC, b.PeakCPUTempC, ffTolLoad)
			for k := range a.ClusterLoad {
				if a.ClusterLoad[k] < ffLoadFloor && b.ClusterLoad[k] < ffLoadFloor {
					continue
				}
				checkDrift(t, u.Name, "ClusterLoad", a.ClusterLoad[k], b.ClusterLoad[k], ffTolLoad)
			}
			t.Logf("%-28s IPC %.4f/%.4f  MPKI %.2f/%.2f  CPU %.3f/%.3f  E %.1f/%.1f",
				u.Name, a.IPC, b.IPC, a.CacheMPKI, b.CacheMPKI,
				a.AvgCPULoad, b.AvgCPULoad, a.EnergyJ, b.EnergyJ)
		})
	}
}

// TestFastForwardTileReadsExactTicks pins how a span tiles its frozen
// metrics: from the trace itself, at the tick numbers of the last p exact
// ticks, even when those straddle an earlier span (exact ticks 38-40, a span
// over 41-56, exact tick 57). The earlier span's tiles must never be read,
// the span's own evolving series must be left alone, and a series of any
// other length must stay short so Profiler.Trace rejects the run.
func TestFastForwardTileReadsExactTicks(t *testing.T) {
	const n, k = 58, 7 // trace length through tick 57; span length
	exact := func(tick int) float64 { return 1000 + float64(tick) }
	for _, p := range []int{1, 2, 4} {
		st := &ffState{nExact: 4, tickOf: [ffMaxPeriod]int{38, 39, 40, 57}}
		prof := profiler.New(0.1, 0)
		for tick := 0; tick < n; tick++ {
			v := exact(tick)
			if tick > 40 && tick < 57 {
				v = 2000 + float64(tick) // the earlier span's tiles
			}
			prof.Sample("frozen", v)
			prof.Sample("evolving", v)
			if tick < n-1 {
				prof.Sample("short", v)
			}
		}
		for i := 0; i < k; i++ {
			prof.Sample("evolving", -float64(i))
		}
		st.tile(prof, k, p)

		series := map[string][]float64{}
		for s := range prof.All() {
			series[s.Name] = s.Values
		}
		frozen := series["frozen"]
		if len(frozen) != n+k {
			t.Fatalf("p=%d: frozen series has %d samples, want %d", p, len(frozen), n+k)
		}
		for i := 0; i < k; i++ {
			want := exact(st.tickOf[ffMaxPeriod-p+i%p])
			if got := frozen[n+i]; got != want {
				t.Errorf("p=%d: span tick %d tiled %g, want %g (exact tick %d)", p, i, got, want, st.tickOf[ffMaxPeriod-p+i%p])
			}
		}
		if ev := series["evolving"]; len(ev) != n+k || ev[n+k-1] != -float64(k-1) {
			t.Errorf("p=%d: the span's evolving series was tiled again (%d samples)", p, len(ev))
		}
		if l := len(series["short"]); l != n-1 {
			t.Errorf("p=%d: misaligned series was tiled to %d samples, want it left at %d", p, l, n-1)
		}
		if _, err := prof.Trace(); err == nil || !strings.Contains(err.Error(), `"short"`) {
			t.Errorf("p=%d: Trace accepted a misaligned series (err %v)", p, err)
		}
	}
}

// TestFastForwardDeterministic pins that the approximate path is still a
// deterministic function of (workload, run): two fast-forwarded runs must be
// byte-identical to each other even though they drift from the exact path.
func TestFastForwardDeterministic(t *testing.T) {
	eng := MustNew(Config{FastForward: true})
	w := workload.AnalysisUnits()[0]
	a, err := eng.Run(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Run(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Agg != b.Agg {
		t.Fatalf("fast-forwarded run not deterministic:\n%+v\n%+v", a.Agg, b.Agg)
	}
	for _, m := range []string{profiler.MetricCPULoad, profiler.MetricGPULoad, "energy.total_j"} {
		sa, sb := a.Trace.MustSeries(m), b.Trace.MustSeries(m)
		for i := range sa.Values {
			if sa.Values[i] != sb.Values[i] {
				t.Fatalf("%s sample %d diverged: %g vs %g", m, i, sa.Values[i], sb.Values[i])
			}
		}
	}
}

// TestFastForwardNoJumpIsExact pins the fallback contract: phases too short
// to accumulate the evidence gate (ffMinRefreshes exact refreshes plus two
// post-warmup rate draws) never jump, and a fast-forwarding engine that
// never jumps is bit-identical to the exact path — the ff bookkeeping has no
// side effects of its own.
func TestFastForwardNoJumpIsExact(t *testing.T) {
	w := tinyWorkload()
	for i := range w.Phases {
		w.Phases[i].Duration = 1.5 // 15 ticks = 3 refreshes < ffMinRefreshes
	}
	a, err := MustNew(Config{}).Run(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MustNew(Config{FastForward: true}).Run(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Agg != b.Agg {
		t.Fatalf("no-jump fast-forward diverged from exact:\n%+v\n%+v", a.Agg, b.Agg)
	}
}

// TestFastForwardCancellation is the cancellation-latency guarantee: the
// engine re-checks ctx before and after every analytic jump, so a cancelled
// fast-forwarded run must abort promptly rather than completing its spans.
func TestFastForwardCancellation(t *testing.T) {
	eng := MustNew(Config{FastForward: true})
	w := workload.AnalysisUnits()[0]

	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.RunContext(done, w, 0); err != context.Canceled {
		t.Fatalf("pre-cancelled context: got %v, want context.Canceled", err)
	}

	ctx, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel2()
	}()
	start := time.Now()
	_, err := eng.RunContext(ctx, w, 0)
	lat := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("mid-run cancel: got %v, want context.Canceled", err)
	}
	if lat > time.Second {
		t.Fatalf("cancellation latency %v exceeds 1 s", lat)
	}
}

// TestTraceModeAuto pins that the deprecated TraceAuto knob is inert: a
// TraceAuto run is deep-equal to a default run, full trace included, on the
// exact and the fast-forwarded path. The metrics TraceAuto used to leave
// out of the trace (thermal.soc_c among them) are kept.
func TestTraceModeAuto(t *testing.T) {
	for _, ff := range []bool{false, true} {
		want, err := MustNew(Config{FastForward: ff}).Run(tinyWorkload(), 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MustNew(Config{FastForward: ff, TraceMode: TraceAuto}).Run(tinyWorkload(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("FastForward=%v: TraceAuto run differs from the default run", ff)
		}
		if got.Trace == nil || got.Trace.Series("thermal.soc_c") == nil {
			t.Errorf("FastForward=%v: TraceAuto run dropped thermal.soc_c from its trace", ff)
		}
	}
}

// TestTraceModeStreamed pins that no TraceMode value leaves a run without
// its trace. 1 and 2 were the integer values of the deleted TraceStreamed
// and of the old TraceAuto; a caller still passing either gets the full
// trace, every series Samples long, and the same aggregates as a default
// run.
func TestTraceModeStreamed(t *testing.T) {
	full, err := MustNew(Config{}).Run(tinyWorkload(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []TraceMode{TraceFull, 1, 2} {
		res, err := MustNew(Config{TraceMode: mode}).Run(tinyWorkload(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace == nil {
			t.Fatalf("TraceMode %d: no trace", mode)
		}
		if res.Agg != full.Agg {
			t.Fatalf("TraceMode %d: aggregates differ:\n%+v\n%+v", mode, res.Agg, full.Agg)
		}
		if res.Trace.Samples != full.Trace.Samples {
			t.Fatalf("TraceMode %d: %d samples, default run %d", mode, res.Trace.Samples, full.Trace.Samples)
		}
		for _, m := range []string{profiler.MetricCPULoad, profiler.MetricGPULoad, "energy.total_j"} {
			s := res.Trace.Series(m)
			if s == nil || s.Len() != full.Trace.Samples {
				t.Errorf("TraceMode %d: series %s missing or short", mode, m)
				continue
			}
			if got, want := s.Mean(), full.Trace.MustSeries(m).Mean(); got != want {
				t.Errorf("TraceMode %d: %s mean %g, default run %g", mode, m, got, want)
			}
		}
	}
}
