package sim

import (
	"math"
	"reflect"
	"testing"

	"mobilebench/internal/aie"
	"mobilebench/internal/cpu"
	"mobilebench/internal/gpu"
	"mobilebench/internal/profiler"
	"mobilebench/internal/soc"
	"mobilebench/internal/workload"
)

// tinyWorkload is a fast two-phase benchmark used throughout these tests.
func tinyWorkload() workload.Workload {
	return workload.Workload{
		Name:   "tiny",
		Suite:  "test",
		Target: workload.TargetCPU,
		Phases: []workload.Phase{
			{
				Name:     "single",
				Duration: 4,
				CPU: workload.CPUPhase{
					Tasks:       []workload.TaskSpec{{Count: 1, Demand: 0.9}},
					Mix:         cpu.InstrMix{LoadStoreFrac: 0.3, BranchFrac: 0.1, BaseILP: 2},
					ComputeDuty: 0.5,
				},
			},
			{
				Name:     "multi",
				Duration: 4,
				CPU: workload.CPUPhase{
					Tasks:       []workload.TaskSpec{{Count: 8, Demand: 0.8}},
					Mix:         cpu.InstrMix{LoadStoreFrac: 0.3, BranchFrac: 0.1, BaseILP: 2},
					ComputeDuty: 0.5,
				},
			},
		},
	}
}

func gpuWorkload() workload.Workload {
	return workload.Workload{
		Name:   "tinygpu",
		Suite:  "test",
		Target: workload.TargetGPU,
		Phases: []workload.Phase{{
			Name:     "scene",
			Duration: 5,
			CPU: workload.CPUPhase{
				Tasks:       []workload.TaskSpec{{Count: 2, Demand: 0.1}},
				Mix:         cpu.InstrMix{LoadStoreFrac: 0.3, BranchFrac: 0.1, BaseILP: 1.5},
				ComputeDuty: 0.5,
			},
			GPU: gpu.Scene{
				API: gpu.Vulkan, Width: 1920, Height: 1080,
				WorkPerPixel: 4000, TextureBytesPerFrame: 1 << 28,
				FramebufferFactor: 2, DrawCallsPerFrame: 500,
				TextureWorkingSetMB: 500,
			},
		}},
	}
}

func TestRunProducesAlignedTrace(t *testing.T) {
	eng := MustNew(Config{})
	res, err := eng.Run(tinyWorkload(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Samples < 70 {
		t.Fatalf("8 s at 0.1 s ticks should give ~80 samples, got %d", res.Trace.Samples)
	}
	if res.Trace.NumMetrics() < 150 {
		t.Fatalf("trace carries %d metrics, want 150+", res.Trace.NumMetrics())
	}
	// The Table IV metrics must exist.
	for _, m := range []string{
		profiler.MetricCPULoad, profiler.MetricGPULoad, profiler.MetricShadersBusy,
		profiler.MetricGPUBusBusy, profiler.MetricAIELoad, profiler.MetricUsedMem,
	} {
		if res.Trace.Series(m) == nil {
			t.Errorf("missing metric %s", m)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	eng := MustNew(Config{})
	a, err := eng.Run(tinyWorkload(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Run(tinyWorkload(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Agg != b.Agg {
		t.Fatalf("same run index diverged:\n%+v\n%+v", a.Agg, b.Agg)
	}
}

func TestDistinctRunsDiffer(t *testing.T) {
	eng := MustNew(Config{})
	a, _ := eng.Run(tinyWorkload(), 0)
	b, _ := eng.Run(tinyWorkload(), 1)
	if a.Agg == b.Agg {
		t.Fatal("distinct run indices produced identical aggregates (no jitter)")
	}
}

func TestSeedChangesResults(t *testing.T) {
	a, _ := MustNew(Config{Seed: 1}).Run(tinyWorkload(), 0)
	b, _ := MustNew(Config{Seed: 2}).Run(tinyWorkload(), 0)
	if a.Agg == b.Agg {
		t.Fatal("different seeds produced identical aggregates")
	}
}

func TestMulticorePhaseLoadsAllClusters(t *testing.T) {
	eng := MustNew(Config{})
	res, _ := eng.Run(tinyWorkload(), 0)
	little := res.Trace.MustSeries("cpu.little.load")
	mid := res.Trace.MustSeries("cpu.mid.load")
	big := res.Trace.MustSeries("cpu.big.load")
	n := little.Len()
	// Second half is the 8-thread phase.
	for _, s := range []struct {
		name   string
		series float64
	}{
		{"little", meanTail(little.Values, n/2)},
		{"mid", meanTail(mid.Values, n/2)},
		{"big", meanTail(big.Values, n/2)},
	} {
		if s.series < 0.5 {
			t.Errorf("cluster %s load %.2f during multicore phase, want > 0.5", s.name, s.series)
		}
	}
	// First half: only Big heavily loaded.
	if m := meanHead(mid.Values, n/2); m > 0.2 {
		t.Errorf("mid cluster busy (%.2f) during single-core phase", m)
	}
}

func meanTail(v []float64, from int) float64 {
	s := 0.0
	for _, x := range v[from:] {
		s += x
	}
	return s / float64(len(v)-from)
}

func meanHead(v []float64, to int) float64 {
	s := 0.0
	for _, x := range v[:to] {
		s += x
	}
	return s / float64(to)
}

func TestGPUWorkloadCounters(t *testing.T) {
	eng := MustNew(Config{})
	res, err := eng.Run(gpuWorkload(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.AvgGPULoad <= 0.2 {
		t.Fatalf("GPU scene produced load %.2f", res.Agg.AvgGPULoad)
	}
	if res.Agg.AvgShadersBusy <= 0 || res.Agg.AvgGPUBusBusy <= 0 {
		t.Fatal("GPU sub-metrics missing")
	}
	// CPU-side load is light and on the Little cluster (Observation #8).
	if res.Agg.ClusterLoad[soc.Big] > 0.05 {
		t.Fatalf("GPU workload used the Big core: %.2f", res.Agg.ClusterLoad[soc.Big])
	}
}

func TestAV1FallbackRaisesCPULoad(t *testing.T) {
	// The sim couples the AIE's codec rejection back into CPU load.
	mkVideo := func(codec string) workload.Workload {
		return workload.Workload{
			Name: "video-" + codec, Suite: "test", Target: workload.TargetUX,
			Phases: []workload.Phase{{
				Name: "decode", Duration: 5,
				CPU: workload.CPUPhase{
					Tasks:       []workload.TaskSpec{{Count: 1, Demand: 0.05}},
					Mix:         cpu.InstrMix{LoadStoreFrac: 0.3, BranchFrac: 0.1, BaseILP: 1.5},
					ComputeDuty: 0.5,
				},
				AIE: []aie.Demand{{Op: aie.OpVideoDecode, Rate: 0.8, Codec: codec}},
			}},
		}
	}
	eng := MustNew(Config{})
	hw, _ := eng.Run(mkVideo("H264"), 0)
	sw, _ := eng.Run(mkVideo("AV1"), 0)
	if sw.Agg.AvgCPULoad <= hw.Agg.AvgCPULoad*1.5 {
		t.Fatalf("AV1 software decode CPU load %.2f not above hardware decode %.2f",
			sw.Agg.AvgCPULoad, hw.Agg.AvgCPULoad)
	}
	if hw.Agg.AvgAIELoad <= sw.Agg.AvgAIELoad {
		t.Fatal("hardware decode should load the AIE more than the rejected codec")
	}
}

func TestRunAveraged(t *testing.T) {
	eng := MustNew(Config{})
	runs := make([]*Result, 3)
	for r := range runs {
		res, err := eng.Run(tinyWorkload(), r)
		if err != nil {
			t.Fatal(err)
		}
		runs[r] = res
	}
	res, err := AverageResults(tinyWorkload().Name, runs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.InstrCount == runs[0].Agg.InstrCount {
		t.Fatal("averaged aggregates identical to a single run; averaging is a no-op")
	}
	if res.Trace == nil || res.Trace.Samples == 0 {
		t.Fatal("averaged trace missing")
	}
}

func TestRunRejectsInvalidWorkload(t *testing.T) {
	eng := MustNew(Config{})
	if _, err := eng.Run(workload.Workload{Name: "bad"}, 0); err == nil {
		t.Fatal("phaseless workload accepted")
	}
}

func TestConfigNormalize(t *testing.T) {
	cfg, err := Config{}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 888 || cfg.Platform == nil {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if eng := MustNew(Config{}); eng.Platform().Name == "" {
		t.Fatal("platform missing")
	}
}

func TestNewRejectsInvalidPlatform(t *testing.T) {
	p := soc.Snapdragon888HDK()
	p.GPU.NumShaders = 0
	if _, err := New(Config{Platform: p}); err == nil {
		t.Fatal("invalid platform accepted")
	}
}

func TestAggregatesConsistency(t *testing.T) {
	eng := MustNew(Config{})
	res, _ := eng.Run(tinyWorkload(), 0)
	a := res.Agg
	if a.InstrCount <= 0 || a.IPC <= 0 {
		t.Fatalf("degenerate aggregates: %+v", a)
	}
	if a.IPC > 8 {
		t.Fatalf("IPC %.2f above the platform's theoretical max", a.IPC)
	}
	if a.CacheMPKI < 0 || a.BranchMPKI < 0 {
		t.Fatal("negative MPKI")
	}
	if a.AvgCPULoad < 0 || a.AvgCPULoad > 1 {
		t.Fatalf("CPU load out of range: %g", a.AvgCPULoad)
	}
	if math.Abs(a.RuntimeSec-8) > 0.5 {
		t.Fatalf("runtime %.2f, want ~8", a.RuntimeSec)
	}
	if a.PeakUsedMemMB < a.AvgUsedMemMB {
		t.Fatal("peak memory below average")
	}
}

func TestRuntimeJitterBounded(t *testing.T) {
	eng := MustNew(Config{})
	for run := 0; run < 5; run++ {
		res, _ := eng.Run(tinyWorkload(), run)
		if math.Abs(res.Agg.RuntimeSec-8) > 0.8 {
			t.Fatalf("run %d runtime %.2f drifted more than 10%%", run, res.Agg.RuntimeSec)
		}
	}
}

func TestGPUContentionVisibleInIPC(t *testing.T) {
	// A memory-hungry CPU phase must lose IPC when a heavy GPU scene runs
	// alongside (SLC pollution + bus contention).
	mk := func(withGPU bool) workload.Workload {
		w := workload.Workload{
			Name: "contend", Suite: "test", Target: workload.TargetCPU,
			Phases: []workload.Phase{{
				Name: "mem", Duration: 6,
				CPU: workload.CPUPhase{
					Tasks:       []workload.TaskSpec{{Count: 1, Demand: 0.9}},
					Mix:         cpu.InstrMix{LoadStoreFrac: 0.5, BranchFrac: 0.05, BaseILP: 2},
					ComputeDuty: 0.5,
				},
			}},
		}
		w.Phases[0].CPU.Access.WorkingSetBytes = 32 << 20
		w.Phases[0].CPU.Access.ReuseSkew = 0.3
		if withGPU {
			w.Phases[0].GPU = gpu.Scene{
				API: gpu.OpenGL, Width: 1920, Height: 1080,
				WorkPerPixel: 5000, TextureBytesPerFrame: 1 << 29,
				FramebufferFactor: 3, DrawCallsPerFrame: 900,
				TextureWorkingSetMB: 1200,
			}
		}
		return w
	}
	eng := MustNew(Config{})
	calm, _ := eng.Run(mk(false), 0)
	loud, _ := eng.Run(mk(true), 0)
	if loud.Agg.IPC >= calm.Agg.IPC {
		t.Fatalf("GPU contention did not depress IPC: %.3f >= %.3f",
			loud.Agg.IPC, calm.Agg.IPC)
	}
}

func TestPowerAndThermalCounters(t *testing.T) {
	eng := MustNew(Config{})
	res, err := eng.Run(tinyWorkload(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{
		"power.total_w", "power.cpu_w", "power.gpu_w", "energy.total_j",
		"thermal.cpu_c", "thermal.skin_c",
	} {
		if res.Trace.Series(m) == nil {
			t.Errorf("missing extension metric %s", m)
		}
	}
	if res.Agg.AvgPowerW <= 0 || res.Agg.EnergyJ <= 0 {
		t.Fatalf("power aggregates missing: %+v", res.Agg)
	}
	if res.Agg.PeakCPUTempC <= 25 {
		t.Fatalf("CPU never warmed above ambient: %.1f", res.Agg.PeakCPUTempC)
	}
	// Energy is the integral of power.
	energy := res.Trace.MustSeries("energy.total_j")
	if last := energy.Values[len(energy.Values)-1]; last <= 0 {
		t.Fatal("energy counter did not accumulate")
	}
	// The multicore phase draws more power than the single-core phase.
	p := res.Trace.MustSeries("power.cpu_w")
	n := p.Len()
	if meanTail(p.Values, n/2) <= meanHead(p.Values, n/2) {
		t.Fatal("multicore phase should out-draw the single-core phase")
	}
}

func TestThermalThrottleCapsFrequency(t *testing.T) {
	// The paper's development board never throttled, so a long all-core
	// burn must reach the Big cluster's max frequency; the trip state is
	// still observed through the thermal.cpu_throttled counter.
	hot := workload.Workload{
		Name: "burn", Suite: "test", Target: workload.TargetCPU,
		Phases: []workload.Phase{{
			Name: "burn", Duration: 60,
			CPU: workload.CPUPhase{
				Tasks:       []workload.TaskSpec{{Count: 8, Demand: 0.95}},
				Mix:         cpu.InstrMix{LoadStoreFrac: 0.3, BranchFrac: 0.1, BaseILP: 2},
				ComputeDuty: 0.5,
			},
		}},
	}
	res, err := MustNew(Config{}).Run(hot, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Trace.MustSeries("cpu.big.freq_mhz")
	if f.Max() < 2900 {
		t.Fatalf("unthrottled burn never reached max frequency: %.0f MHz", f.Max())
	}
	if res.Trace.Series("thermal.cpu_throttled") == nil {
		t.Fatal("throttle counter missing")
	}
}

func TestRunOnMidrangePlatform(t *testing.T) {
	// The pipeline is not tied to the flagship platform: the same workload
	// runs on a dual-cluster mid-range SoC, where heavy threads land on
	// the Gold (Mid) cluster because there is no prime core.
	eng := MustNew(Config{Platform: soc.Midrange750G()})
	res, err := eng.Run(tinyWorkload(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.InstrCount <= 0 || res.Agg.IPC <= 0 {
		t.Fatalf("midrange run degenerate: %+v", res.Agg)
	}
	if res.Agg.ClusterLoad[soc.Big] != 0 {
		t.Fatalf("phantom prime-core load %.2f on a platform without one",
			res.Agg.ClusterLoad[soc.Big])
	}
	if res.Agg.ClusterLoad[soc.Mid] <= 0.2 {
		t.Fatalf("heavy threads should land on the Gold cluster: %.2f",
			res.Agg.ClusterLoad[soc.Mid])
	}
	// The flagship finishes the same work with a higher IPC (wider prime
	// core) — a sanity cross-platform comparison.
	flag, err := MustNew(Config{}).Run(tinyWorkload(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if flag.Agg.IPC <= res.Agg.IPC {
		t.Fatalf("flagship IPC %.2f not above midrange %.2f", flag.Agg.IPC, res.Agg.IPC)
	}
}

// TestAggregatesMatchTrace pins that a run's aggregates are what its trace
// says: every load and memory average is its series' mean, the two peaks
// are series maxima, the cumulative counters are the last samples, and a
// cluster the platform lacks reads 0. Exact and fast-forwarded runs, on a
// tri-cluster and a dual-cluster platform.
func TestAggregatesMatchTrace(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		w    workload.Workload
	}{
		{"exact", Config{}, tinyWorkload()},
		{"exact/gpu", Config{}, gpuWorkload()},
		{"exact/midrange", Config{Platform: soc.Midrange750G()}, tinyWorkload()},
		{"ff", Config{FastForward: true}, stretched(tinyWorkload(), 30)},
		{"ff/gpu", Config{FastForward: true}, stretched(gpuWorkload(), 30)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := MustNew(tc.cfg)
			res, err := eng.Run(tc.w, 0)
			if err != nil {
				t.Fatal(err)
			}
			if tc.cfg.FastForward {
				// The case must take a span, or it only re-tests exact ticks.
				ex, err := MustNew(Config{}).Run(tc.w, 0)
				if err != nil {
					t.Fatal(err)
				}
				if ex.Agg == res.Agg {
					t.Fatal("fast-forwarded run equals the exact one: no span was taken")
				}
			}
			a, tr := res.Agg, res.Trace
			mean := func(m string) float64 { return tr.MustSeries(m).Mean() }
			last := func(m string) float64 {
				v := tr.MustSeries(m).Values
				return v[len(v)-1]
			}
			for _, c := range []struct {
				field     string
				got, want float64
			}{
				{"AvgCPULoad", a.AvgCPULoad, mean(profiler.MetricCPULoad)},
				{"AvgGPULoad", a.AvgGPULoad, mean(profiler.MetricGPULoad)},
				{"AvgShadersBusy", a.AvgShadersBusy, mean(profiler.MetricShadersBusy)},
				{"AvgGPUBusBusy", a.AvgGPUBusBusy, mean(profiler.MetricGPUBusBusy)},
				{"AvgAIELoad", a.AvgAIELoad, mean(profiler.MetricAIELoad)},
				{"AvgUsedMemFrac", a.AvgUsedMemFrac, mean(profiler.MetricUsedMem)},
				{"AvgUsedMemMB", a.AvgUsedMemMB, mean(profiler.MetricUsedMemMB)},
				{"PeakUsedMemMB", a.PeakUsedMemMB, tr.MustSeries(profiler.MetricUsedMemMB).Max()},
				{"PeakCPUTempC", a.PeakCPUTempC, tr.MustSeries(profiler.MetricCPUTempC).Max()},
				{"InstrCount", a.InstrCount, last("cpu.total_instr")},
				{"IPC", a.IPC, last("cpu.total_instr") / last("cpu.total_cycles")},
				{"CacheMPKI", a.CacheMPKI, last(profiler.MetricCacheMPKI)},
				{"BranchMPKI", a.BranchMPKI, last(profiler.MetricBranchMPKI)},
				{"EnergyJ", a.EnergyJ, last("energy.total_j")},
			} {
				if math.Float64bits(c.got) != math.Float64bits(c.want) {
					t.Errorf("%s = %v, trace says %v", c.field, c.got, c.want)
				}
			}
			for _, k := range soc.Clusters() {
				want := 0.0
				if eng.Platform().Clusters[k].NumCores > 0 {
					want = mean(ClusterMetric(k, "load"))
				}
				if got := a.ClusterLoad[k]; math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("ClusterLoad[%v] = %v, trace says %v", k, got, want)
				}
			}
		})
	}
}

// stretched returns w with every phase lasting sec seconds, long enough
// for fast-forwarding to take spans.
func stretched(w workload.Workload, sec float64) workload.Workload {
	w.Phases = append([]workload.Phase(nil), w.Phases...)
	for i := range w.Phases {
		w.Phases[i].Duration = sec
	}
	return w
}

// TestAverageResultsFields pins the run-averaging rule: every aggregate
// except the two peaks is the run mean (summed in run order, scaled by
// 1/n); the peaks take the maximum over runs.
func TestAverageResultsFields(t *testing.T) {
	tr, err := profiler.New(0.1, 0).Trace()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(base float64) *Result {
		return &Result{Workload: "w", Trace: tr, Agg: Aggregates{
			Name: "run", RuntimeSec: base, InstrCount: 2 * base, IPC: 3 * base,
			CacheMPKI: 4 * base, BranchMPKI: 5 * base, AvgCPULoad: 6 * base,
			AvgGPULoad: 7 * base, AvgShadersBusy: 8 * base, AvgGPUBusBusy: 9 * base,
			AvgAIELoad: 10 * base, AvgUsedMemFrac: 11 * base, AvgUsedMemMB: 12 * base,
			PeakUsedMemMB: 13 * base, ClusterLoad: [soc.NumClusters]float64{14 * base, 15 * base, 16 * base},
			AvgPowerW: 17 * base, EnergyJ: 18 * base, PeakCPUTempC: 19 * base,
		}}
	}
	bases := []float64{0.7, 1.9, 1.1}
	runs := []*Result{mk(bases[0]), mk(bases[1]), mk(bases[2])}
	res, err := AverageResults("avg", runs)
	if err != nil {
		t.Fatal(err)
	}
	mean := func(f func(a Aggregates) float64) float64 {
		return (f(runs[0].Agg) + f(runs[1].Agg) + f(runs[2].Agg)) * (1.0 / 3)
	}
	a := res.Agg
	if a.Name != "avg" {
		t.Errorf("Name = %q, want avg", a.Name)
	}
	for _, c := range []struct {
		field     string
		got, want float64
	}{
		{"RuntimeSec", a.RuntimeSec, mean(func(a Aggregates) float64 { return a.RuntimeSec })},
		{"InstrCount", a.InstrCount, mean(func(a Aggregates) float64 { return a.InstrCount })},
		{"IPC", a.IPC, mean(func(a Aggregates) float64 { return a.IPC })},
		{"CacheMPKI", a.CacheMPKI, mean(func(a Aggregates) float64 { return a.CacheMPKI })},
		{"BranchMPKI", a.BranchMPKI, mean(func(a Aggregates) float64 { return a.BranchMPKI })},
		{"AvgCPULoad", a.AvgCPULoad, mean(func(a Aggregates) float64 { return a.AvgCPULoad })},
		{"AvgGPULoad", a.AvgGPULoad, mean(func(a Aggregates) float64 { return a.AvgGPULoad })},
		{"AvgShadersBusy", a.AvgShadersBusy, mean(func(a Aggregates) float64 { return a.AvgShadersBusy })},
		{"AvgGPUBusBusy", a.AvgGPUBusBusy, mean(func(a Aggregates) float64 { return a.AvgGPUBusBusy })},
		{"AvgAIELoad", a.AvgAIELoad, mean(func(a Aggregates) float64 { return a.AvgAIELoad })},
		{"AvgUsedMemFrac", a.AvgUsedMemFrac, mean(func(a Aggregates) float64 { return a.AvgUsedMemFrac })},
		{"AvgUsedMemMB", a.AvgUsedMemMB, mean(func(a Aggregates) float64 { return a.AvgUsedMemMB })},
		{"ClusterLoad[0]", a.ClusterLoad[0], mean(func(a Aggregates) float64 { return a.ClusterLoad[0] })},
		{"ClusterLoad[1]", a.ClusterLoad[1], mean(func(a Aggregates) float64 { return a.ClusterLoad[1] })},
		{"ClusterLoad[2]", a.ClusterLoad[2], mean(func(a Aggregates) float64 { return a.ClusterLoad[2] })},
		{"AvgPowerW", a.AvgPowerW, mean(func(a Aggregates) float64 { return a.AvgPowerW })},
		{"EnergyJ", a.EnergyJ, mean(func(a Aggregates) float64 { return a.EnergyJ })},
		{"PeakUsedMemMB", a.PeakUsedMemMB, 13 * bases[1]},
		{"PeakCPUTempC", a.PeakCPUTempC, 19 * bases[1]},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Errorf("%s = %v, want %v", c.field, c.got, c.want)
		}
	}
}

// TestAggregatesFieldsComplete pins Fields against the struct: it must
// list every float64 of Aggregates, array elements included, in
// declaration order, or averaging, checkpoints and fault skew would skip
// or misorder a field.
func TestAggregatesFieldsComplete(t *testing.T) {
	var a Aggregates
	var want []*float64
	v := reflect.ValueOf(&a).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Float64:
			want = append(want, f.Addr().Interface().(*float64))
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				want = append(want, f.Index(j).Addr().Interface().(*float64))
			}
		case reflect.String:
		default:
			t.Fatalf("field %s has kind %v; Fields does not cover it", v.Type().Field(i).Name, f.Kind())
		}
	}
	got := a.Fields()
	if len(got) != len(want) {
		t.Fatalf("Fields lists %d numbers, Aggregates has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Fields()[%d] points at the wrong field", i)
		}
	}
}
