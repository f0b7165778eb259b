// Command mbsim runs a single benchmark on the simulated platform and
// either prints its aggregate counters or dumps the full counter trace as
// CSV (for plotting).
//
// Usage:
//
//	mbsim -bench "3DMark Wild Life" [-runs N] [-workers N] [-csv] [-list]
//	      [-max-retries N] [-run-timeout D] [-min-runs N] [-fail-fast]
//	      [-inject SPEC] [-checkpoint FILE] [-resume] [-fast-forward]
//	      [-timing-model CMD] [-timing-replay DIR]
//	      [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"mobilebench/internal/cliflag"
	"mobilebench/internal/par"
	"mobilebench/internal/roi"
	"mobilebench/internal/sim"
	"mobilebench/internal/workload"
)

func main() {
	col := cliflag.RegisterCollection(flag.CommandLine, 1)
	col.Profile = cliflag.RegisterProfile(flag.CommandLine)
	col.Timing = cliflag.RegisterTiming(flag.CommandLine)
	bench := flag.String("bench", "", "benchmark name (analysis unit or executable)")
	verbose := flag.Bool("verbose", false, "print execution details")
	csv := flag.Bool("csv", false, "dump the full counter trace as CSV")
	list := flag.Bool("list", false, "list available benchmarks")
	roiWindow := flag.Float64("roi", 0, "select representative regions of interest with this window length (seconds)")
	fastForward := flag.Bool("fast-forward", false,
		"skip steady-state phase ticks analytically (2.6x faster per run, 3.3x for a 3-run analysis; biased: IPC reads 4-11% low on every unit, cache MPKI up to 22% high)")
	flag.Parse()

	if *list {
		fmt.Println("Analysis units:")
		for _, w := range workload.AnalysisUnits() {
			fmt.Printf("  %-30s %-12s %6.1f s\n", w.Name, w.Suite, w.Duration())
		}
		fmt.Println("\nIndividually executable sub-benchmarks:")
		var names []string
		for _, w := range workload.Executables() {
			names = append(names, fmt.Sprintf("  %-55s %-12s %6.1f s", w.Name, w.Suite, w.Duration()))
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}
	if *bench == "" {
		fatal(fmt.Errorf("missing -bench (use -list to see names)"))
	}
	w, err := workload.ByName(*bench)
	if err != nil {
		fatal(err)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "mbsim: %d runs across %d workers\n", col.Runs, par.Workers(col.Workers))
	}
	// A single-unit collection rather than a bare engine loop: the same
	// fan-out drives every CLI, so -checkpoint/-resume behave identically
	// here and in the full characterizations.
	ds, done, err := col.Collect(context.Background(), "mbsim",
		sim.Config{FastForward: *fastForward}, []workload.Workload{w})
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := done(); err != nil {
			fatal(err)
		}
	}()
	u := ds.Units[0]
	// A degraded collection was already reported; a clean one that
	// needed retries is worth a line too.
	if prov, ok := ds.ProvenanceOf(w.Name); ok && !prov.Degraded() && prov.TotalRetries() > 0 {
		fmt.Fprintf(os.Stderr, "mbsim: %s\n", prov)
	}
	if *csv {
		if err := u.Trace.WriteCSV(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *roiWindow > 0 {
		sel, err := roi.Analyze(u.Trace, roi.Options{WindowSec: *roiWindow})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %d representative intervals over %d windows (%.0f%% coverage)\n",
			w.Name, len(sel.Intervals), sel.Windows, sel.Coverage*100)
		for _, iv := range sel.Intervals {
			fmt.Printf("  phase %d  %7.1f - %7.1f s  weight %.2f\n",
				iv.Phase, iv.StartSec, iv.EndSec, iv.Weight)
		}
		fmt.Printf("replay budget %.1f s of %.1f s; reconstruction error %.1f%%\n",
			sel.SimulatedSeconds(), u.Agg.RuntimeSec, sel.ReconstructionError()*100)
		return
	}
	a := u.Agg
	fmt.Printf("%s (%s)\n", w.Name, w.Suite)
	fmt.Printf("  runtime           %.1f s\n", a.RuntimeSec)
	fmt.Printf("  instructions      %.2f B\n", a.InstrCount/1e9)
	fmt.Printf("  IPC               %.2f\n", a.IPC)
	fmt.Printf("  cache MPKI        %.1f\n", a.CacheMPKI)
	fmt.Printf("  branch MPKI       %.1f\n", a.BranchMPKI)
	fmt.Printf("  CPU load          %.2f (little %.2f / mid %.2f / big %.2f)\n",
		a.AvgCPULoad, a.ClusterLoad[0], a.ClusterLoad[1], a.ClusterLoad[2])
	fmt.Printf("  GPU load          %.2f (shaders %.2f, bus %.2f)\n",
		a.AvgGPULoad, a.AvgShadersBusy, a.AvgGPUBusBusy)
	fmt.Printf("  AIE load          %.2f\n", a.AvgAIELoad)
	fmt.Printf("  memory used       %.1f%% (avg %.2f GB, peak %.2f GB)\n",
		a.AvgUsedMemFrac*100, a.AvgUsedMemMB/1024, a.PeakUsedMemMB/1024)
	fmt.Printf("  power             %.2f W average, %.1f J total (extension)\n",
		a.AvgPowerW, a.EnergyJ)
	fmt.Printf("  peak CPU temp     %.1f C (extension)\n", a.PeakCPUTempC)
	fmt.Printf("  trace             %d metrics x %d samples\n",
		u.Trace.NumMetrics(), u.Trace.Samples)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mbsim:", err)
	os.Exit(1)
}
