// Command mbtrace prints the temporal analyses: Figure 2 (normalized metric
// series over normalized runtime, as sparklines) and, with -clusters, the
// Figure 3 per-cluster load levels and Table V averages.
//
// Usage:
//
//	mbtrace [-runs N] [-workers N] [-samples N] [-clusters] [-bench NAME]
//	        [-max-retries N] [-run-timeout D] [-min-runs N] [-fail-fast]
//	        [-inject SPEC] [-checkpoint FILE] [-resume]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"mobilebench/internal/cliflag"
	"mobilebench/internal/report"
	"mobilebench/internal/sim"
	"mobilebench/internal/workload"
)

func main() {
	col := cliflag.RegisterCollection(flag.CommandLine, 3)
	samples := flag.Int("samples", 100, "normalized-time resolution")
	clusters := flag.Bool("clusters", false, "print Figure 3 / Table V instead of Figure 2")
	bench := flag.String("bench", "", "limit to one benchmark (analysis-unit name)")
	flag.Parse()

	var units []workload.Workload
	if *bench != "" {
		w, err := workload.ByName(*bench)
		if err != nil {
			fatal(err)
		}
		units = []workload.Workload{w}
	}
	ds, done, err := col.Collect(context.Background(), "mbtrace", sim.Config{}, units)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := done(); err != nil {
			fatal(err)
		}
	}()

	if *clusters {
		f3, err := report.Figure3(ds)
		if err != nil {
			fatal(err)
		}
		if err := f3.Write(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
		t5, err := report.TableV(ds)
		if err != nil {
			fatal(err)
		}
		if err := t5.Write(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	out, err := report.Figure2(ds, *samples)
	if err != nil {
		fatal(err)
	}
	fmt.Print(out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mbtrace:", err)
	os.Exit(1)
}
