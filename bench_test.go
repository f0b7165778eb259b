package mobilebench

// The root benchmarks time the simulation paths a gate, the nightly job or
// README "Performance" reads: the 18-unit, three-run collection (exact,
// parallel and fast-forwarded) and one Wild Life run (exact and
// fast-forwarded). They print nothing. The paper's tables and figures are
// rendered by internal/report for the CLIs, and goldens pin that text:
// internal/core/testdata/{report,analysis,figure2}_3run.golden and
// testdata/analysis_exact.golden.
//
// Run them with:
//
//	go test -run '^$' -bench . -benchmem

import (
	"testing"

	"mobilebench/internal/core"
	"mobilebench/internal/sim"
)

// BenchmarkCharacterizeAll measures the full pipeline the paper's
// methodology implies: all 18 analysis units, three averaged runs each,
// one simulation at a time (Workers=1). Each exact simulation still steps
// its GPU model on a second goroutine, so this path can use two cores.
func BenchmarkCharacterizeAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds, err := core.Collect(core.Options{Sim: sim.Config{}, Runs: 3, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(ds.Units) != 18 {
			b.Fatal("wrong unit count")
		}
	}
}

// BenchmarkCharacterizeAllParallel is the same pipeline with the (unit, run)
// fan-out across all cores (Workers=0). README "Performance" quotes its
// speedup over the sequential benchmark.
func BenchmarkCharacterizeAllParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds, err := core.Collect(core.Options{Sim: sim.Config{}, Runs: 3, Workers: 0})
		if err != nil {
			b.Fatal(err)
		}
		if len(ds.Units) != 18 {
			b.Fatal("wrong unit count")
		}
	}
}

// BenchmarkSimulateWildLife measures one run of a single short benchmark —
// the granularity a user pays when characterizing one workload.
func BenchmarkSimulateWildLife(b *testing.B) {
	eng, err := sim.New(sim.Config{})
	if err != nil {
		b.Fatal(err)
	}
	wl, err := BenchmarkByName("3DMark Wild Life")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(wl, i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateWildLifeFastForward is the same single-unit simulation
// with phase fast-forwarding: steady-state spans of each phase are executed
// analytically instead of tick by tick.
func BenchmarkSimulateWildLifeFastForward(b *testing.B) {
	eng, err := sim.New(sim.Config{FastForward: true})
	if err != nil {
		b.Fatal(err)
	}
	wl, err := BenchmarkByName("3DMark Wild Life")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(wl, i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterizeAllFastForward is the full 18-unit, three-run
// pipeline in fast-forward mode.
func BenchmarkCharacterizeAllFastForward(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds, err := core.Collect(core.Options{
			Sim:     sim.Config{FastForward: true},
			Runs:    3,
			Workers: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(ds.Units) != 18 {
			b.Fatal("wrong unit count")
		}
	}
}
