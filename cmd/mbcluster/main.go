// Command mbcluster runs the similarity analysis: the Figure 4 cluster-count
// validation sweep and the Figure 5/6 clusterings (hierarchical dendrogram
// plus K-means/PAM groupings).
//
// Usage:
//
//	mbcluster [-runs N] [-workers N] [-k K] [-validate] [-kmeans|-pam]
//	          [-max-retries N] [-run-timeout D] [-min-runs N] [-fail-fast]
//	          [-inject SPEC] [-checkpoint FILE] [-resume]
//	          [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"mobilebench/internal/cliflag"
	"mobilebench/internal/cluster"
	"mobilebench/internal/par"
	"mobilebench/internal/report"
	"mobilebench/internal/sim"
)

func main() {
	col := cliflag.RegisterCollection(flag.CommandLine, 3)
	col.Profile = cliflag.RegisterProfile(flag.CommandLine)
	k := flag.Int("k", 5, "number of clusters")
	verbose := flag.Bool("verbose", false, "print execution details")
	validate := flag.Bool("validate", false, "print the Figure 4 validation sweep")
	kmeans := flag.Bool("kmeans", false, "print only the K-means clustering (Figure 6)")
	pam := flag.Bool("pam", false, "print only the PAM clustering")
	flag.Parse()

	if *verbose {
		fmt.Fprintf(os.Stderr, "mbcluster: characterizing with %d workers\n", par.Workers(col.Workers))
	}
	ds, done, err := col.Collect(context.Background(), "mbcluster", sim.Config{}, nil)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := done(); err != nil {
			fatal(err)
		}
	}()

	if *validate {
		scores, err := ds.Figure4(2, 9)
		if err != nil {
			fatal(err)
		}
		if err := report.WriteSweep(os.Stdout, scores); err != nil {
			fatal(err)
		}
		return
	}

	switch {
	case *kmeans:
		c, err := ds.ClusterWith(cluster.NewKMeans(), *k)
		if err != nil {
			fatal(err)
		}
		mustWrite(report.Clusters(c))
	case *pam:
		c, err := ds.ClusterWith(cluster.NewPAM(), *k)
		if err != nil {
			fatal(err)
		}
		mustWrite(report.Clusters(c))
	default:
		fig5, den, err := ds.Figure5()
		if err != nil {
			fatal(err)
		}
		fmt.Print(report.Dendrogram(den, ds.Names()))
		fmt.Println()
		mustWrite(report.Clusters(fig5))
		fmt.Println()
		agree, cs, err := ds.AgreementAcrossAlgorithms(*k)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("all algorithms agree at k=%d: %v\n\n", *k, agree)
		for _, c := range cs[1:] {
			mustWrite(report.Clusters(c))
			fmt.Println()
		}
	}
}

func mustWrite(t *report.Table) {
	if err := t.Write(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mbcluster:", err)
	os.Exit(1)
}
