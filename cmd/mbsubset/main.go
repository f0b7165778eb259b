// Command mbsubset computes the paper's reduced benchmark sets: Table VI
// (runtimes and reductions) and, with -curve, the Figure 7 growth curves.
// With -budget SECONDS it instead greedily selects the most representative
// subset under a runtime budget.
//
// Usage:
//
//	mbsubset [-runs N] [-workers N] [-curve] [-budget SECONDS]
//	         [-max-retries N] [-run-timeout D] [-min-runs N] [-fail-fast]
//	         [-inject SPEC] [-checkpoint FILE] [-resume]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"mobilebench/internal/cliflag"
	"mobilebench/internal/report"
	"mobilebench/internal/sim"
	"mobilebench/internal/subset"
)

func main() {
	col := cliflag.RegisterCollection(flag.CommandLine, 3)
	curve := flag.Bool("curve", false, "print the Figure 7 growth curves")
	budget := flag.Float64("budget", 0, "select a subset under this runtime budget (seconds)")
	flag.Parse()

	ds, done, err := col.Collect(context.Background(), "mbsubset", sim.Config{}, nil)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := done(); err != nil {
			fatal(err)
		}
	}()

	if *budget > 0 {
		set, err := subset.UnderBudget(ds.SubsetBenchmarks(), *budget)
		if err != nil {
			fatal(err)
		}
		rt, err := subset.RuntimeSec(ds.SubsetBenchmarks(), set.Members)
		if err != nil {
			fatal(err)
		}
		d, err := subset.TotalMinDistance(ds.SubsetBenchmarks(), set.Members)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %v\nruntime %.1f s, representativeness distance %.2f\n",
			set.Name, set.Members, rt, d)
		return
	}

	if *curve {
		curves, err := ds.Figure7()
		if err != nil {
			fatal(err)
		}
		if err := report.Figure7(curves).Write(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	if err := report.WriteSubsets(os.Stdout, ds); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mbsubset:", err)
	os.Exit(1)
}
