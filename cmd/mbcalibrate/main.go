// Command mbcalibrate runs every analysis unit through the simulator and
// prints measured aggregates next to the paper's calibration targets,
// together with the duty-factor corrections that would align the dynamic
// instruction counts. It is the developer tool used to fit
// internal/workload/calibration.go.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"mobilebench/internal/cliflag"
	"mobilebench/internal/report"
	"mobilebench/internal/sim"
	"mobilebench/internal/workload"
)

func main() {
	col := cliflag.RegisterCollection(flag.CommandLine, 1)
	col.Profile = cliflag.RegisterProfile(flag.CommandLine)
	analysis := flag.Bool("analysis", false, "print the downstream analyses (Table III, clusterings, Figure 4, Tables V-VI, Figure 7, observations) instead of the calibration table")
	features := flag.Bool("features", false, "print normalized clustering features and distances")
	fastForward := flag.Bool("fast-forward", false,
		"skip steady-state phase ticks analytically (2.6x faster per run, 3.3x for a 3-run analysis; biased: IPC reads 4-11% low on every unit, cache MPKI up to 22% high)")
	flag.Parse()

	// One collection over every unit for every mode: the fan-out keeps all
	// cores busy, and -checkpoint/-resume and -fast-forward mean the same
	// options (and so the same checkpoint fingerprint) whichever view
	// prints.
	ds, done, err := col.Collect(context.Background(), "mbcalibrate", sim.Config{FastForward: *fastForward}, nil)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := done(); err != nil {
			fatal(err)
		}
	}()
	switch {
	case *analysis:
		if err := report.WriteAnalysis(os.Stdout, ds); err != nil {
			fatal(err)
		}
		return
	case *features:
		runFeatures(ds)
		return
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\truntime\tIC(B)\ttargetIC\tdutyFix\tIPC\ttgtIPC\tcMPKI\tbMPKI\tCPU\tGPU\tShad\tBus\tAIE\tMem%\tMemMB\tLload\tMload\tBload")
	for _, u := range ds.Units {
		w := u.Workload
		a := u.Agg
		t, _ := workload.TargetFor(w.Name)
		icB := a.InstrCount / 1e9
		fix := 0.0
		if icB > 0 {
			fix = t.ICBillions / icB
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.2f\t%.1f\t%.3f\t%.2f\t%.2f\t%.1f\t%.1f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.0f\t%.2f\t%.2f\t%.2f\n",
			a.Name, a.RuntimeSec, icB, t.ICBillions, fix, a.IPC, t.IPC,
			a.CacheMPKI, a.BranchMPKI,
			a.AvgCPULoad, a.AvgGPULoad, a.AvgShadersBusy, a.AvgGPUBusBusy,
			a.AvgAIELoad, a.AvgUsedMemFrac, a.PeakUsedMemMB,
			a.ClusterLoad[0], a.ClusterLoad[1], a.ClusterLoad[2])
	}
	tw.Flush()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mbcalibrate:", err)
	os.Exit(1)
}
