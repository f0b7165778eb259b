// Command mbreport runs the full characterization and writes the complete
// report — Figure 1 metrics, Table III correlations, Table V load levels,
// Table VI subsets and the Section V observation checks — to stdout or a
// file. It is the one-command version of the paper's evaluation section.
//
// Usage:
//
//	mbreport [-runs N] [-workers N] [-o FILE] [-max-retries N]
//	         [-run-timeout D] [-min-runs N] [-fail-fast] [-inject SPEC]
//	         [-checkpoint FILE] [-resume]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"mobilebench/internal/checkpoint"
	"mobilebench/internal/cliflag"
	"mobilebench/internal/report"
	"mobilebench/internal/sim"
)

func main() {
	col := cliflag.RegisterCollection(flag.CommandLine, 3)
	out := flag.String("o", "", "write the report to this file instead of stdout")
	flag.Parse()

	ds, done, err := col.Collect(context.Background(), "mbreport", sim.Config{}, nil)
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		err = report.WriteReport(os.Stdout, ds)
	} else {
		// Atomic replace: the report lands under its final name only once
		// fully written, so a crash mid-write never leaves a truncated file
		// where a previous good report used to be.
		err = checkpoint.WriteTo(*out, func(w io.Writer) error { return report.WriteReport(w, ds) })
	}
	if err == nil {
		err = done()
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mbreport:", err)
	os.Exit(1)
}
