package main

import (
	"fmt"
	"os"
	"sort"

	"mobilebench/internal/core"
	"mobilebench/internal/soc"
)

// runAnalysis prints the downstream analyses (correlations, clustering,
// load levels, subsets, observations) for calibration review.
func runAnalysis(ds *core.Dataset) {
	fmt.Println("== Table III correlations ==")
	t3 := ds.TableIII()
	for i, a := range t3.Metrics {
		for j := 0; j <= i; j++ {
			fmt.Printf("%7.3f", t3.R[i][j])
		}
		fmt.Printf("  %s\n", a)
	}

	fmt.Println("\n== Clustering (k=5) ==")
	agree, cs, err := ds.AgreementAcrossAlgorithms(5)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbcalibrate:", err)
		os.Exit(1)
	}
	fmt.Println("algorithms agree:", agree)
	for _, c := range cs {
		fmt.Printf("-- %s:\n", c.Algorithm)
		for id, g := range c.Groups {
			fmt.Printf("   C%d: %v\n", id, g)
		}
	}

	fmt.Println("\n== Optimal k sweep (2..9) ==")
	scores, err := ds.Figure4(2, 9)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbcalibrate:", err)
		os.Exit(1)
	}
	for _, s := range scores {
		fmt.Printf("%-22s k=%d dunn=%.3f sil=%.3f apn=%.3f ad=%.3f\n",
			s.Algorithm, s.K, s.Dunn, s.Silhouette, s.APN, s.AD)
	}
	k, _ := ds.OptimalK(2, 9)
	fmt.Println("best k:", k)

	fmt.Println("\n== Table V ==")
	t5, err := ds.TableV()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbcalibrate:", err)
		os.Exit(1)
	}
	for _, kind := range soc.Clusters() {
		fmt.Printf("%-12s", kind)
		for _, v := range t5[kind] {
			fmt.Printf(" %5.1f%%", v*100)
		}
		fmt.Println()
	}

	fmt.Println("\n== Table VI ==")
	t6, err := ds.TableVI()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbcalibrate:", err)
		os.Exit(1)
	}
	fmt.Printf("original runtime: %.1f s\n", ds.TotalRuntimeSec())
	for _, r := range t6 {
		fmt.Printf("%-12s %8.1f s  -%.2f%%  %v\n", r.Set.Name, r.RuntimeSec, r.ReductionFrac*100, r.Set.Members)
	}

	gpuName, gpuV := ds.HighestAvgGPULoad()
	aieName, aieV := ds.HighestAvgAIELoad()
	fmt.Printf("\nhighest avg GPU load: %s (%.2f)\nhighest avg AIE load: %s (%.2f)\n",
		gpuName, gpuV, aieName, aieV)

	fmt.Println("\n== Figure 7 ==")
	curves, err := ds.Figure7()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbcalibrate:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(curves))
	for name := range curves {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-12s:", name)
		for _, p := range curves[name] {
			fmt.Printf(" %d:%.2f", p.N, p.Distance)
		}
		fmt.Println()
	}

	fmt.Println("\n== Observations ==")
	obs, err := ds.Observations()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbcalibrate:", err)
		os.Exit(1)
	}
	for _, o := range obs {
		status := "PASS"
		if !o.Holds {
			status = "FAIL"
		}
		fmt.Printf("[%s] #%d %s\n        %s\n", status, o.ID, o.Title, o.Detail)
	}
}
