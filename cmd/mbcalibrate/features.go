package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"mobilebench/internal/cluster"
	"mobilebench/internal/core"
)

// runFeatures prints the normalized clustering features, the pairwise
// distance matrix and each benchmark's nearest neighbours — the view used
// to calibrate the similarity analysis.
func runFeatures(ds *core.Dataset) {
	rows := ds.NormalizedFeatures()
	names := ds.Names()

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 1, ' ', 0)
	fmt.Fprint(tw, "benchmark")
	for _, f := range core.FeatureNames() {
		fmt.Fprintf(tw, "\t%s", f[:min(8, len(f))])
	}
	fmt.Fprintln(tw)
	for i, r := range rows {
		fmt.Fprintf(tw, "%s", names[i])
		for _, v := range r {
			fmt.Fprintf(tw, "\t%.2f", v)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	fmt.Println("\nnearest neighbours:")
	d := cluster.DistanceMatrix(rows)
	for i := range rows {
		type nb struct {
			j int
			v float64
		}
		var ns []nb
		for j := range rows {
			if j != i {
				ns = append(ns, nb{j, d[i][j]})
			}
		}
		for a := 0; a < 3; a++ {
			best := a
			for b := a + 1; b < len(ns); b++ {
				if ns[b].v < ns[best].v {
					best = b
				}
			}
			ns[a], ns[best] = ns[best], ns[a]
		}
		fmt.Printf("%-26s -> %s (%.2f), %s (%.2f), %s (%.2f)\n",
			names[i], names[ns[0].j], ns[0].v, names[ns[1].j], ns[1].v, names[ns[2].j], ns[2].v)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
