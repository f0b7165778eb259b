// Command mbcalibrate runs every analysis unit through the simulator and
// prints measured aggregates next to the paper's calibration targets,
// together with the duty-factor corrections that would align the dynamic
// instruction counts. It is the developer tool used to fit
// internal/workload/calibration.go.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"mobilebench/internal/cliflag"
	"mobilebench/internal/core"
	"mobilebench/internal/sim"
	"mobilebench/internal/workload"
)

func main() {
	runs := flag.Int("runs", 1, "runs to average per benchmark")
	workers := flag.Int("workers", 0, "simulation worker goroutines (0 = all cores)")
	analysis := flag.Bool("analysis", false, "also run the downstream analyses (clustering, subsets, observations)")
	features := flag.Bool("features", false, "print normalized clustering features and distances")
	fastForward := flag.Bool("fast-forward", false,
		"skip steady-state phase ticks analytically (about 4x faster; counters drift within the differential-suite tolerances)")
	rf := cliflag.RegisterResilience()
	cf := cliflag.RegisterCheckpoint()
	pf := cliflag.RegisterProfile()
	flag.Parse()

	if err := cf.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "mbcalibrate:", err)
		os.Exit(1)
	}
	if err := pf.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "mbcalibrate:", err)
		os.Exit(1)
	}
	defer func() {
		if err := pf.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "mbcalibrate: %v\n", err)
		}
	}()
	inj, err := rf.Injector()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbcalibrate:", err)
		os.Exit(1)
	}
	// One Collect over every unit for every mode: the fan-out keeps all
	// cores busy, and -checkpoint/-resume and -fast-forward mean the same
	// options (and so the same snapshot fingerprint) whichever view prints.
	ds, err := core.Collect(core.Options{
		Sim:        sim.Config{Fault: inj, FastForward: *fastForward},
		Runs:       *runs,
		Workers:    *workers,
		Resilience: rf.Policy(),
		Checkpoint: cf.Path,
		Resume:     cf.Resume,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbcalibrate:", err)
		os.Exit(1)
	}
	cliflag.WarnDegraded("mbcalibrate", ds)
	switch {
	case *analysis:
		runAnalysis(ds)
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
