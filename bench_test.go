package mobilebench

// The benchmark harness regenerates every table and figure in the paper's
// evaluation section. Each benchmark prints the rows/series the paper
// reports via -v logging (b.Logf) and measures the cost of the analysis
// step; BenchmarkCharacterizeAll measures the full three-run simulation
// that feeds them.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The characterized dataset is built once and shared, so the per-figure
// benches time the analysis, not the simulator.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"mobilebench/internal/core"
	"mobilebench/internal/roi"
	"mobilebench/internal/sim"
	"mobilebench/internal/soc"
)

var (
	benchOnce sync.Once
	benchDS   *core.Dataset
	benchErr  error
)

func benchDataset(b *testing.B) *core.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		benchDS, benchErr = core.Collect(core.Options{Sim: sim.Config{}, Runs: 3})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDS
}

// BenchmarkCharacterizeAll measures the full pipeline the paper's
// methodology implies: all 18 analysis units, three averaged runs each,
// on the sequential (Workers=1) path.
func BenchmarkCharacterizeAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds, err := core.Collect(core.Options{Sim: sim.Config{}, Runs: 3, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(ds.Units) != 18 {
			b.Fatal("wrong unit count")
		}
	}
}

// BenchmarkCharacterizeAllParallel is the same pipeline with the (unit, run)
// fan-out across all cores (Workers=0). The speedup over the sequential
// benchmark is tracked in BENCH_baseline.json.
func BenchmarkCharacterizeAllParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds, err := core.Collect(core.Options{Sim: sim.Config{}, Runs: 3, Workers: 0})
		if err != nil {
			b.Fatal(err)
		}
		if len(ds.Units) != 18 {
			b.Fatal("wrong unit count")
		}
	}
}

// BenchmarkSimulateWildLife measures one run of a single short benchmark —
// the granularity a user pays when characterizing one workload.
func BenchmarkSimulateWildLife(b *testing.B) {
	eng, err := sim.New(sim.Config{})
	if err != nil {
		b.Fatal(err)
	}
	wl, err := BenchmarkByName("3DMark Wild Life")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(wl, i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateWildLifeFastForward is the same single-unit simulation
// with phase fast-forwarding: steady-state spans of each phase are executed
// analytically instead of tick by tick.
func BenchmarkSimulateWildLifeFastForward(b *testing.B) {
	eng, err := sim.New(sim.Config{FastForward: true})
	if err != nil {
		b.Fatal(err)
	}
	wl, err := BenchmarkByName("3DMark Wild Life")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(wl, i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterizeAllFastForward is the headline PR 6 number: the full
// 18-unit, three-run pipeline in fast-forward mode with streamed statistics
// for everything outside the analysis metric set.
func BenchmarkCharacterizeAllFastForward(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds, err := core.Collect(core.Options{
			Sim:     sim.Config{FastForward: true, TraceMode: sim.TraceAuto},
			Runs:    3,
			Workers: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(ds.Units) != 18 {
			b.Fatal("wrong unit count")
		}
	}
}

// BenchmarkFigure1 regenerates the per-benchmark metric rows (IC, IPC,
// cache MPKI, branch MPKI, runtime).
func BenchmarkFigure1(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var rows []core.Figure1Row
	var avg core.Figure1Row
	for i := 0; i < b.N; i++ {
		rows, avg = ds.Figure1()
	}
	b.StopTimer()
	for _, r := range rows {
		b.Logf("%-26s IC=%6.2fB IPC=%.2f cacheMPKI=%5.1f branchMPKI=%5.1f runtime=%7.1fs",
			r.Name, r.IC/1e9, r.IPC, r.CacheMPKI, r.BranchMPKI, r.RuntimeSec)
	}
	b.Logf("%-26s IC=%6.2fB IPC=%.2f cacheMPKI=%5.1f branchMPKI=%5.1f runtime=%7.1fs",
		"average", avg.IC/1e9, avg.IPC, avg.CacheMPKI, avg.BranchMPKI, avg.RuntimeSec)
}

// BenchmarkTableIII regenerates the metric correlation matrix.
func BenchmarkTableIII(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var c core.CorrelationTable
	for i := 0; i < b.N; i++ {
		c = ds.TableIII()
	}
	b.StopTimer()
	for i, m := range c.Metrics {
		row := fmt.Sprintf("%-12s", m)
		for j := 0; j <= i; j++ {
			row += fmt.Sprintf(" %7.3f", c.R[i][j])
		}
		b.Log(row)
	}
}

// BenchmarkFigure2 regenerates the normalized temporal profiles of the six
// Table IV metrics over normalized runtime.
func BenchmarkFigure2(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var profiles []core.TemporalProfile
	var err error
	for i := 0; i < b.N; i++ {
		profiles, err = ds.Figure2(100)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, p := range profiles {
		b.Logf("%-26s CPU=%.2f GPU=%.2f shaders=%.2f bus=%.2f AIE=%.2f mem=%.2f",
			p.Name, p.Mean["cpu.load"], p.Mean["gpu.load"], p.Mean["gpu.shaders_busy"],
			p.Mean["gpu.bus_busy"], p.Mean["aie.load"], p.Mean["mem.used_frac"])
	}
}

// BenchmarkFigure3 regenerates the per-cluster load-level occupancy.
func BenchmarkFigure3(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var profiles []core.ClusterLoadProfile
	var err error
	for i := 0; i < b.N; i++ {
		profiles, err = ds.Figure3()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, p := range profiles {
		b.Logf("%-26s little=%v mid=%v big=%v", p.Name,
			fmtLevels(p.LevelFrac[soc.Little]),
			fmtLevels(p.LevelFrac[soc.Mid]),
			fmtLevels(p.LevelFrac[soc.Big]))
	}
}

func fmtLevels(l [core.NumLoadLevels]float64) string {
	return fmt.Sprintf("[%2.0f/%2.0f/%2.0f/%2.0f%%]", l[0]*100, l[1]*100, l[2]*100, l[3]*100)
}

// BenchmarkTableV regenerates the average load-level occupancy per cluster.
func BenchmarkTableV(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var avg [soc.NumClusters][core.NumLoadLevels]float64
	var err error
	for i := 0; i < b.N; i++ {
		avg, err = ds.TableV()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, k := range soc.Clusters() {
		b.Logf("%-12s %s (paper: Little 21/32/25/22, Mid 76/8/8/8, Big 69/7/6/18)",
			k, fmtLevels(avg[k]))
	}
}

// BenchmarkFigure4 regenerates the cluster-count validation sweep (Dunn,
// Silhouette, APN, AD over k=2..9 for three algorithms).
func BenchmarkFigure4(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scores, err := ds.Figure4(2, 9)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.StopTimer()
			for _, s := range scores {
				b.Logf("%-20s k=%d dunn=%.3f sil=%.3f apn=%.3f ad=%.3f",
					s.Algorithm, s.K, s.Dunn, s.Silhouette, s.APN, s.AD)
			}
			best, _ := ds.OptimalK(2, 9)
			b.Logf("optimal k = %d (paper: 5)", best)
			b.StartTimer()
		}
	}
}

// BenchmarkFigure5 regenerates the hierarchical clustering and dendrogram.
func BenchmarkFigure5(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var c core.Clustering
	var err error
	for i := 0; i < b.N; i++ {
		c, _, err = ds.Figure5()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for id, g := range c.Groups {
		b.Logf("C%d: %v", id, g)
	}
}

// BenchmarkFigure6 regenerates the K-means clustering (PAM agrees, as in
// the paper).
func BenchmarkFigure6(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var c core.Clustering
	var err error
	for i := 0; i < b.N; i++ {
		c, err = ds.Figure6()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	agree, _, err := ds.AgreementAcrossAlgorithms(5)
	if err != nil {
		b.Fatal(err)
	}
	for id, g := range c.Groups {
		b.Logf("C%d: %v", id, g)
	}
	b.Logf("all three algorithms agree: %v (paper: identical groupings)", agree)
}

// BenchmarkTableVI regenerates the subset runtimes and reductions.
func BenchmarkTableVI(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var reds []SubsetReduction
	var err error
	for i := 0; i < b.N; i++ {
		reds, err = ds.TableVI()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Logf("original %8.1f s (paper 4429.5)", ds.TotalRuntimeSec())
	for _, r := range reds {
		b.Logf("%-12s %8.1f s  -%.2f%%  %v", r.Set.Name, r.RuntimeSec,
			r.ReductionFrac*100, r.Set.Members)
	}
}

// BenchmarkFigure7 regenerates the total-minimum-Euclidean-distance growth
// curves of the three subsets.
func BenchmarkFigure7(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var curves map[string][]CurvePoint
	var err error
	for i := 0; i < b.N; i++ {
		curves, err = ds.Figure7()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for name, curve := range curves {
		row := name + ":"
		for _, p := range curve {
			row += fmt.Sprintf(" %.2f", p.Distance)
		}
		b.Log(row)
	}
}

// BenchmarkObservations re-evaluates the Section V observation checks.
func BenchmarkObservations(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var obs []Observation
	var err error
	for i := 0; i < b.N; i++ {
		obs, err = ds.Observations()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, o := range obs {
		status := "PASS"
		if !o.Holds {
			status = "FAIL"
		}
		b.Logf("[%s] #%d %s", status, o.ID, o.Title)
	}
}

// --- ablation benches (design choices called out in DESIGN.md) -------------

// BenchmarkAblationCacheSampling sweeps the sampled-access budget, the key
// fidelity/throughput knob of the cache model.
func BenchmarkAblationCacheSampling(b *testing.B) {
	wl, err := BenchmarkByName("3DMark Wild Life")
	if err != nil {
		b.Fatal(err)
	}
	for _, samples := range []int{300, 1500, 6000} {
		b.Run(fmt.Sprintf("samples=%d", samples), func(b *testing.B) {
			eng, err := sim.New(sim.Config{CacheSamples: samples})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(wl, i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTick sweeps the simulation tick, trading temporal
// resolution for speed.
func BenchmarkAblationTick(b *testing.B) {
	wl, err := BenchmarkByName("3DMark Wild Life")
	if err != nil {
		b.Fatal(err)
	}
	for _, tick := range []float64{0.05, 0.1, 0.25} {
		b.Run(fmt.Sprintf("tick=%.2fs", tick), func(b *testing.B) {
			eng, err := sim.New(sim.Config{TickSec: tick})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(wl, i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRuns compares one-run and paper-style three-run
// averaging cost.
func BenchmarkAblationRuns(b *testing.B) {
	wl, err := BenchmarkByName("GFXBench Render Quality")
	if err != nil {
		b.Fatal(err)
	}
	for _, runs := range []int{1, 3} {
		b.Run(fmt.Sprintf("runs=%d", runs), func(b *testing.B) {
			eng, err := sim.New(sim.Config{})
			if err != nil {
				b.Fatal(err)
			}
			results := make([]*sim.Result, runs)
			for i := 0; i < b.N; i++ {
				for r := range results {
					if results[r], err = eng.RunContext(context.Background(), wl, r); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := sim.AverageResults(wl.Name, results); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkROISelection measures SimPoint-style representative-interval
// selection on a benchmark trace (the repository's answer to the paper's
// "choosing a Region of Interest poses challenges").
func BenchmarkROISelection(b *testing.B) {
	eng, err := sim.New(sim.Config{})
	if err != nil {
		b.Fatal(err)
	}
	wl, err := BenchmarkByName("Geekbench 5 CPU")
	if err != nil {
		b.Fatal(err)
	}
	res, err := eng.Run(wl, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sel *roi.Selection
	for i := 0; i < b.N; i++ {
		sel, err = roi.Analyze(res.Trace, roi.Options{WindowSec: 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Logf("%d intervals, %.0f%% coverage, %.1f%% reconstruction error",
		len(sel.Intervals), sel.Coverage*100, sel.ReconstructionError()*100)
}

// BenchmarkEnergyExtension reports the power/energy extension for every
// benchmark (the paper's stated limitation, filled by this repository).
func BenchmarkEnergyExtension(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	total := 0.0
	for i := 0; i < b.N; i++ {
		total = 0
		for _, u := range ds.Units {
			total += u.Agg.EnergyJ
		}
	}
	b.StopTimer()
	for _, u := range ds.Units {
		b.Logf("%-26s %5.2f W avg  %8.0f J", u.Workload.Name, u.Agg.AvgPowerW, u.Agg.EnergyJ)
	}
	b.Logf("full suite energy: %.0f J (%.3f Wh)", total, total/3600)
}
