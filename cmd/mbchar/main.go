// Command mbchar characterizes the commercial mobile benchmark suites on
// the simulated platform and prints the Figure 1 metrics, the Table III
// correlations and (optionally) the Section V observation checks.
//
// Usage:
//
//	mbchar [-runs N] [-workers N] [-csv] [-correlation] [-observations]
//	       [-max-retries N] [-run-timeout D] [-min-runs N] [-fail-fast]
//	       [-inject SPEC] [-checkpoint FILE] [-resume]
//	       [-timing-model CMD] [-timing-replay DIR]
//	       [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"mobilebench/internal/cliflag"
	"mobilebench/internal/par"
	"mobilebench/internal/report"
	"mobilebench/internal/sim"
)

func main() {
	col := cliflag.RegisterCollection(flag.CommandLine, 3)
	col.Profile = cliflag.RegisterProfile(flag.CommandLine)
	col.Timing = cliflag.RegisterTiming(flag.CommandLine)
	seed := flag.Uint64("seed", 0, "simulation seed (0 = default)")
	verbose := flag.Bool("verbose", false, "print execution details")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	correlation := flag.Bool("correlation", false, "print only Table III")
	observations := flag.Bool("observations", false, "print only the observation checks")
	fastForward := flag.Bool("fast-forward", false,
		"skip steady-state phase ticks analytically (2.6x faster per run, 3.3x for a 3-run analysis; biased: IPC reads 4-11% low on every unit, cache MPKI up to 22% high)")
	flag.Parse()

	if *verbose {
		fmt.Fprintf(os.Stderr, "mbchar: characterizing with %d workers\n", par.Workers(col.Workers))
	}
	ds, done, err := col.Collect(context.Background(), "mbchar",
		sim.Config{Seed: *seed, FastForward: *fastForward}, nil)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := done(); err != nil {
			fatal(err)
		}
	}()

	emit := func(t *report.Table) {
		var werr error
		if *csv {
			werr = t.WriteCSV(os.Stdout)
		} else {
			werr = t.Write(os.Stdout)
		}
		if werr != nil {
			fatal(werr)
		}
		fmt.Println()
	}

	switch {
	case *correlation:
		emit(report.TableIII(ds))
	case *observations:
		obs, err := ds.Observations()
		if err != nil {
			fatal(err)
		}
		emit(report.Observations(obs))
	default:
		emit(report.Figure1(ds))
		emit(report.TableIII(ds))
		obs, err := ds.Observations()
		if err != nil {
			fatal(err)
		}
		emit(report.Observations(obs))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mbchar:", err)
	os.Exit(1)
}
