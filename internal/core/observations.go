package core

import (
	"fmt"
	"strings"

	"mobilebench/internal/profiler"
	"mobilebench/internal/sim"
	"mobilebench/internal/soc"
	"mobilebench/internal/workload"
)

// Observations: structured checks of the paper's Section V findings against
// the dataset. Each observation evaluates to a pass/fail with supporting
// numbers so regressions in the models or the workload definitions surface
// immediately.

// Observation is one evaluated finding.
type Observation struct {
	// ID is the paper's observation number (1-9) or 0 for the section's
	// additional findings.
	ID int
	// Title is the paper's statement.
	Title string
	// Detail carries the supporting numbers.
	Detail string
	// Holds reports whether the dataset supports the statement.
	Holds bool
}

// Observations evaluates all checks.
func (d *Dataset) Observations() ([]Observation, error) {
	checks := []func() (Observation, error){
		d.obs1MultiCoreLoad,
		d.obs2VulkanVsOpenGL,
		d.obs3GPUNotOnlyGraphics,
		d.obs4NewerNotMoreIntensive,
		d.obs5LittleAIEUse,
		d.obs6ModerateMemory,
		d.obs7BigOverMid,
		d.obs8GPUTestsUseLittle,
		d.obs9FewUseAllClusters,
		d.extraAV1CPUSpike,
		d.extraOffscreenLoad,
	}
	var out []Observation
	for _, c := range checks {
		o, err := c()
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

// mean of a unit's metric over a normalized-time window [a,b).
func (u Unit) windowMean(metric string, a, b float64) float64 {
	s := u.Trace.Series(metric)
	if s == nil || s.Len() == 0 {
		return 0
	}
	n := s.Len()
	lo, hi := int(a*float64(n)), int(b*float64(n))
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if lo >= hi {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}

// Observation #1: multi-core/multi-threaded components show high CPU load.
func (d *Dataset) obs1MultiCoreLoad() (Observation, error) {
	o := Observation{ID: 1, Title: "Benchmarks with multi-core components show high CPU load levels"}
	var details []string
	holds := true
	// Geekbench runs its single-core pass first, multi-core second: the
	// later window must carry substantially more CPU load.
	for _, name := range []string{workload.NameGB5CPU, workload.NameGB6CPU} {
		u, err := d.Unit(name)
		if err != nil {
			return o, err
		}
		single := u.windowMean(profiler.MetricCPULoad, 0.10, 0.50)
		multi := u.windowMean(profiler.MetricCPULoad, 0.60, 0.95)
		details = append(details, fmt.Sprintf("%s single=%.2f multi=%.2f", name, single, multi))
		if multi < single*1.5 || single > 0.45 {
			holds = false
		}
	}
	// Antutu CPU spikes for the opening GEMM and the closing multi-core
	// test.
	u, err := d.Unit(workload.NameAntutuCPU)
	if err != nil {
		return o, err
	}
	gemm := u.windowMean(profiler.MetricCPULoad, 0.0, 0.12)
	mid := u.windowMean(profiler.MetricCPULoad, 0.2, 0.6)
	multi := u.windowMean(profiler.MetricCPULoad, 0.70, 0.88)
	details = append(details, fmt.Sprintf("Antutu CPU gemm=%.2f mid=%.2f multicore=%.2f", gemm, mid, multi))
	if gemm < mid*1.3 || multi < mid*1.3 {
		holds = false
	}
	o.Holds = holds
	o.Detail = strings.Join(details, "; ")
	return o, nil
}

// Observation #2: Vulkan scenes impose lower GPU load than OpenGL ones.
func (d *Dataset) obs2VulkanVsOpenGL() (Observation, error) {
	o := Observation{ID: 2, Title: "Vulkan benchmarks have lower GPU load than OpenGL ones"}
	gl, vk, err := d.GFXBenchAPILoads()
	if err != nil {
		return o, err
	}
	diff := (gl - vk) / vk * 100
	o.Detail = fmt.Sprintf("GFXBench scenes: OpenGL load=%.3f Vulkan load=%.3f (+%.1f%%)", gl, vk, diff)
	o.Holds = gl > vk
	return o, nil
}

// GFXBenchAPILoads runs the individual GFXBench High-Level scenes and
// returns the mean GPU load of the OpenGL scenes and of the Vulkan scenes
// (computed from the grouped High-Level unit's per-scene windows).
func (d *Dataset) GFXBenchAPILoads() (gl, vk float64, err error) {
	u, err := d.Unit(workload.NameGFXHigh)
	if err != nil {
		return 0, 0, err
	}
	// Walk the unit's phases; scene phases carry the API.
	total := u.Workload.Duration()
	var glSum, vkSum float64
	var glN, vkN int
	acc := 0.0
	for _, p := range u.Workload.Phases {
		frac0 := acc / total
		acc += p.Duration
		frac1 := acc / total
		if p.GPU.API == 0 || p.Duration < 10 {
			continue // loading phases
		}
		load := u.windowMean(profiler.MetricGPULoad, frac0, frac1)
		switch p.GPU.API.String() {
		case "OpenGL":
			glSum += load
			glN++
		case "Vulkan":
			vkSum += load
			vkN++
		}
	}
	if glN == 0 || vkN == 0 {
		return 0, 0, fmt.Errorf("core: GFXBench High lacks one of the APIs")
	}
	return glSum / float64(glN), vkSum / float64(vkN), nil
}

// Observation #3: GPU resources are not used exclusively by graphics
// benchmarks — PCMark Work sustains shader activity.
func (d *Dataset) obs3GPUNotOnlyGraphics() (Observation, error) {
	o := Observation{ID: 3, Title: "GPU shader usage is not limited to GPU-focused benchmarks"}
	u, err := d.Unit(workload.NamePCMarkWork)
	if err != nil {
		return o, err
	}
	shaders := u.Trace.MustSeries(profiler.MetricShadersBusy)
	frac := shaders.FracAbove(0.5)
	o.Detail = fmt.Sprintf("PCMark Work: %.0f%% of runtime with the majority of shaders busy (mean %.2f)",
		frac*100, shaders.Mean())
	o.Holds = frac > 0.2
	return o, nil
}

// Observation #4: newer benchmarks are not always more computationally
// intensive — Swordsman (newest Antutu GPU scene) has the lowest CPU load
// of the three scenes, and the load spikes fall outside its window.
func (d *Dataset) obs4NewerNotMoreIntensive() (Observation, error) {
	o := Observation{ID: 4, Title: "Newer benchmarks are not always more computationally intensive"}
	u, err := d.Unit(workload.NameAntutuGPU)
	if err != nil {
		return o, err
	}
	swordsman := u.windowMean(profiler.MetricCPULoad, 0.0, 0.15)
	refinery := u.windowMean(profiler.MetricCPULoad, 0.18, 0.44)
	terracotta := u.windowMean(profiler.MetricCPULoad, 0.50, 0.93)
	o.Detail = fmt.Sprintf("Antutu GPU CPU load: Swordsman=%.2f Refinery=%.2f Terracotta=%.2f",
		swordsman, refinery, terracotta)
	o.Holds = swordsman < refinery && refinery < terracotta
	return o, nil
}

// Observation #5: benchmarks make little use of the AIE (average ~5%),
// with Antutu UX peaking near 50%.
func (d *Dataset) obs5LittleAIEUse() (Observation, error) {
	o := Observation{ID: 5, Title: "Benchmarks make little use of the AIE"}
	sum := 0.0
	for _, u := range d.Units {
		sum += u.Agg.AvgAIELoad
	}
	avg := sum / float64(len(d.Units))
	ux, err := d.Unit(workload.NameAntutuUX)
	if err != nil {
		return o, err
	}
	peak := ux.Trace.MustSeries(profiler.MetricAIELoad).Max()
	o.Detail = fmt.Sprintf("average AIE load=%.1f%%; Antutu UX peak=%.0f%%", avg*100, peak*100)
	o.Holds = avg < 0.10 && peak > 0.35 && peak < 0.70
	return o, nil
}

// Observation #6: the memory footprint of benchmarks is moderate
// (~21.6% average; peak 4.3 GB in Antutu GPU; highest average in Wild Life
// Extreme).
func (d *Dataset) obs6ModerateMemory() (Observation, error) {
	o := Observation{ID: 6, Title: "The memory footprint of benchmarks is moderate"}
	sum := 0.0
	peakName, peakV := "", 0.0
	avgName, avgV := "", 0.0
	for _, u := range d.Units {
		sum += u.Agg.AvgUsedMemFrac
		if u.Agg.PeakUsedMemMB > peakV {
			peakName, peakV = u.Workload.Name, u.Agg.PeakUsedMemMB
		}
		if u.Agg.AvgUsedMemMB > avgV {
			avgName, avgV = u.Workload.Name, u.Agg.AvgUsedMemMB
		}
	}
	avg := sum / float64(len(d.Units))
	o.Detail = fmt.Sprintf("average used=%.1f%%; peak=%.1f GB (%s); highest average=%.1f GB (%s)",
		avg*100, peakV/1024, peakName, avgV/1024, avgName)
	o.Holds = avg > 0.15 && avg < 0.30 &&
		peakName == workload.NameAntutuGPU &&
		avgName == workload.NameWildLifeExtreme
	return o, nil
}

// Observation #7: CPU Big sustains high load longer than CPU Mid in all
// benchmarks that use them, except Aitutu.
func (d *Dataset) obs7BigOverMid() (Observation, error) {
	o := Observation{ID: 7, Title: "Bigger cores have higher load levels than medium cores"}
	profiles, err := d.Figure3()
	if err != nil {
		return o, err
	}
	var exceptions []string
	for _, p := range profiles {
		bigHigh := p.LevelFrac[soc.Big][2] + p.LevelFrac[soc.Big][3]
		midHigh := p.LevelFrac[soc.Mid][2] + p.LevelFrac[soc.Mid][3]
		if bigHigh < 0.02 && midHigh < 0.02 {
			continue // neither cluster actively used
		}
		if midHigh > bigHigh {
			exceptions = append(exceptions, p.Name)
		}
	}
	o.Detail = fmt.Sprintf("exceptions (Mid sustained over Big): %v", exceptions)
	o.Holds = len(exceptions) == 1 && exceptions[0] == workload.NameAitutu
	return o, nil
}

// Observation #8: GPU tests mostly use the energy-efficient cores.
func (d *Dataset) obs8GPUTestsUseLittle() (Observation, error) {
	o := Observation{ID: 8, Title: "GPU tests tend to use only the energy-efficient cores"}
	gpuTests := []string{
		workload.NameWildLife, workload.NameWildLifeExtreme,
		workload.NameGFXHigh, workload.NameGFXLow,
	}
	holds := true
	var details []string
	for _, name := range gpuTests {
		u, err := d.Unit(name)
		if err != nil {
			return o, err
		}
		little := u.Agg.ClusterLoad[soc.Little]
		mid := u.Agg.ClusterLoad[soc.Mid]
		big := u.Agg.ClusterLoad[soc.Big]
		details = append(details, fmt.Sprintf("%s L=%.2f M=%.2f B=%.2f", name, little, mid, big))
		if little < mid || little < big || mid > 0.15 {
			holds = false
		}
	}
	o.Detail = strings.Join(details, "; ")
	o.Holds = holds
	return o, nil
}

// Observation #9: few workloads exploit more than one cluster type
// concurrently; only the explicitly multi-core benchmarks load all three.
func (d *Dataset) obs9FewUseAllClusters() (Observation, error) {
	o := Observation{ID: 9, Title: "Workloads tend not to exploit more than one type of core concurrently"}
	expect := map[string]bool{
		workload.NameAitutu:    true,
		workload.NameAntutuCPU: true,
		workload.NameGB5CPU:    true,
		workload.NameGB6CPU:    true,
	}
	// "Consistent" load means each cluster is meaningfully busy for a
	// substantial share of the run, not just during one phase.
	var allClusters []string
	for _, u := range d.Units {
		busy := func(metric string) float64 {
			return u.Trace.MustSeries(metric).FracAbove(0.25)
		}
		if busy(sim.ClusterMetric(soc.Little, "load")) >= 0.30 &&
			busy(sim.ClusterMetric(soc.Mid, "load")) >= 0.30 &&
			busy(sim.ClusterMetric(soc.Big, "load")) >= 0.30 {
			allClusters = append(allClusters, u.Workload.Name)
		}
	}
	holds := len(allClusters) == len(expect)
	for _, n := range allClusters {
		if !expect[n] {
			holds = false
		}
	}
	o.Detail = fmt.Sprintf("benchmarks loading all clusters: %v", allClusters)
	o.Holds = holds
	return o, nil
}

// Section V-B extra: the AV1 software-decode CPU spike in Antutu UX.
func (d *Dataset) extraAV1CPUSpike() (Observation, error) {
	o := Observation{Title: "Antutu UX CPU load rises for the unsupported AV1 decode"}
	u, err := d.Unit(workload.NameAntutuUX)
	if err != nil {
		return o, err
	}
	// Per the workload timeline the AV1 phase sits at ~58-66% of runtime,
	// right after the hardware-decoded formats at ~45-58%.
	hw := u.windowMean(profiler.MetricCPULoad, 0.46, 0.57)
	av1 := u.windowMean(profiler.MetricCPULoad, 0.59, 0.65)
	o.Detail = fmt.Sprintf("CPU load hardware-decode=%.2f AV1 software-decode=%.2f", hw, av1)
	o.Holds = av1 > hw*1.8
	return o, nil
}

// Section V-B extra: off-screen rendering raises GPU load.
func (d *Dataset) extraOffscreenLoad() (Observation, error) {
	o := Observation{Title: "Off-screen GFXBench variants impose higher GPU load"}
	highOn, highOff, err := d.offscreenLoads(workload.NameGFXHigh)
	if err != nil {
		return o, err
	}
	lowOn, lowOff, err := d.offscreenLoads(workload.NameGFXLow)
	if err != nil {
		return o, err
	}
	highGain := (highOff - highOn) / highOn * 100
	lowGain := (lowOff - lowOn) / lowOn * 100
	o.Detail = fmt.Sprintf("High: on=%.2f off=%.2f (+%.1f%%); Low: on=%.2f off=%.2f (+%.1f%%)",
		highOn, highOff, highGain, lowOn, lowOff, lowGain)
	o.Holds = highOff > highOn && lowOff > lowOn && lowGain > highGain
	return o, nil
}

// offscreenLoads splits a GFXBench unit's scene phases by render target and
// returns mean on-screen and off-screen GPU load.
func (d *Dataset) offscreenLoads(unitName string) (on, off float64, err error) {
	u, err := d.Unit(unitName)
	if err != nil {
		return 0, 0, err
	}
	total := u.Workload.Duration()
	var onSum, offSum float64
	var onN, offN int
	acc := 0.0
	for _, p := range u.Workload.Phases {
		frac0 := acc / total
		acc += p.Duration
		frac1 := acc / total
		if p.GPU.API == 0 || p.Duration < 10 {
			continue
		}
		load := u.windowMean(profiler.MetricGPULoad, frac0, frac1)
		if p.GPU.Offscreen {
			offSum += load
			offN++
		} else {
			onSum += load
			onN++
		}
	}
	if onN == 0 || offN == 0 {
		return 0, 0, fmt.Errorf("core: %s lacks on/off-screen phases", unitName)
	}
	return onSum / float64(onN), offSum / float64(offN), nil
}
