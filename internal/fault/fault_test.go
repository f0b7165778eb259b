package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mobilebench/internal/profiler"
)

func TestPlanForDeterminism(t *testing.T) {
	cfg := Config{Seed: 7, Crash: 0.3, Abort: 0.3, Hang: 0.2, Panic: 0.2, Drop: 0.3, NaN: 0.3, Skew: 0.3}
	a, b := New(cfg), New(cfg)
	faulty := 0
	for run := 0; run < 4; run++ {
		for attempt := 0; attempt < 3; attempt++ {
			pa := a.PlanFor("Geekbench 5", run, attempt)
			pb := b.PlanFor("Geekbench 5", run, attempt)
			if !reflect.DeepEqual(pa, pb) {
				t.Fatalf("run %d attempt %d: plans differ between identical injectors", run, attempt)
			}
			if pa != (Plan{seed: pa.seed}) {
				faulty++
			}
		}
	}
	if faulty == 0 {
		t.Fatal("no faults drawn at 30% probabilities over 12 attempts")
	}
	// Different units draw independent plans.
	if reflect.DeepEqual(plansOf(a, "A", 6), plansOf(a, "B", 6)) {
		t.Fatal("distinct units drew identical plan sequences")
	}
}

func plansOf(in *Injector, unit string, n int) []Plan {
	out := make([]Plan, n)
	for i := range out {
		out[i] = in.PlanFor(unit, 0, i)
	}
	return out
}

func TestCleanAfterGuaranteesRecovery(t *testing.T) {
	in := New(Config{Seed: 1, Crash: 1, CleanAfter: 2})
	if !in.PlanFor("x", 0, 0).Crash || !in.PlanFor("x", 0, 1).Crash {
		t.Fatal("crash=1 did not crash early attempts")
	}
	for attempt := 2; attempt < 5; attempt++ {
		if in.PlanFor("x", 0, attempt) != (Plan{}) {
			t.Fatalf("attempt %d faulted despite clean_after=2", attempt)
		}
	}
}

func TestNilInjectorIsClean(t *testing.T) {
	var in *Injector
	if in.PlanFor("x", 0, 0) != (Plan{}) {
		t.Fatal("nil injector injected a fault")
	}
}

func TestParse(t *testing.T) {
	in, err := Parse("crash=0.2, nan=0.1, seed=42, hang_sec=0.25, clean_after=5")
	if err != nil {
		t.Fatal(err)
	}
	cfg := in.Config()
	if cfg.Crash != 0.2 || cfg.NaN != 0.1 || cfg.Seed != 42 || cfg.HangSec != 0.25 || cfg.CleanAfter != 5 {
		t.Fatalf("parsed config %+v", cfg)
	}
	if in, err := Parse(""); err != nil || in != nil {
		t.Fatalf("empty spec: injector %v err %v, want nil/nil", in, err)
	}
	for _, bad := range []string{"boom=1", "crash", "crash=1.5", "crash=x", "seed=-1"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

// corruptibleTrace builds a small aligned trace.
func corruptibleTrace(t *testing.T) *profiler.Trace {
	t.Helper()
	p := profiler.New(0.1, 0)
	for i := 0; i < 50; i++ {
		p.Sample("m.a", float64(i))
		p.Sample("m.b", 2*float64(i))
		p.Sample("m.c", 1)
	}
	tr, err := p.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestCorruptNaNAndDropBreakValidation(t *testing.T) {
	tr := corruptibleTrace(t)
	if err := tr.Validate(); err != nil {
		t.Fatalf("fresh trace invalid: %v", err)
	}
	p := Plan{NaNFrac: 0.05, seed: 99}
	if !p.Corrupt(tr) {
		t.Fatal("NaN corruption reported nothing done")
	}
	if err := tr.Validate(); err == nil {
		t.Fatal("NaN-corrupted trace passed validation")
	}

	tr2 := corruptibleTrace(t)
	p2 := Plan{DropFrac: 0.1, seed: 99}
	if !p2.Corrupt(tr2) {
		t.Fatal("drop corruption reported nothing done")
	}
	err := tr2.Validate()
	if err == nil {
		t.Fatal("drop-corrupted trace passed validation")
	}
	if !strings.Contains(err.Error(), "dropped samples") {
		t.Fatalf("drop validation error = %v, want dropped-samples diagnosis", err)
	}
}

func TestCorruptSkewKeepsTraceValid(t *testing.T) {
	tr := corruptibleTrace(t)
	p := Plan{SkewFactor: 1.7, seed: 5}
	if !p.Corrupt(tr) {
		t.Fatal("skew reported nothing done")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("skewed trace should stay valid (outlier detection's job): %v", err)
	}
	if got := tr.Series("m.c").Values[0]; math.Abs(got-1.7) > 1e-12 {
		t.Fatalf("skewed constant series value = %v, want 1.7", got)
	}
}

func TestCorruptIsDeterministic(t *testing.T) {
	a, b := corruptibleTrace(t), corruptibleTrace(t)
	p := Plan{NaNFrac: 0.04, DropFrac: 0.06, seed: 1234}
	p.Corrupt(a)
	p.Corrupt(b)
	for _, m := range a.Metrics() {
		va, vb := a.Series(m).Values, b.Series(m).Values
		if len(va) != len(vb) {
			t.Fatalf("series %s lengths differ: %d vs %d", m, len(va), len(vb))
		}
		for i := range va {
			same := va[i] == vb[i] || (math.IsNaN(va[i]) && math.IsNaN(vb[i]))
			if !same {
				t.Fatalf("series %s sample %d differs: %v vs %v", m, i, va[i], vb[i])
			}
		}
	}
}
