package workload

import (
	"math"
	"testing"

	"mobilebench/internal/soc"
)

func TestAllUnitsValidate(t *testing.T) {
	for _, w := range AnalysisUnits() {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	for _, w := range Executables() {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

func TestRegistryCounts(t *testing.T) {
	// The paper: 18 analysis units (Antutu split in four, GFXBench grouped
	// in three) and 41 individually executable sub-benchmarks.
	if got := len(AnalysisUnits()); got != 18 {
		t.Fatalf("analysis units = %d, want 18", got)
	}
	if got := len(Executables()); got != 41 {
		t.Fatalf("executables = %d, want 41", got)
	}
}

func TestGFXBenchGroupSizes(t *testing.T) {
	// 19 high-level + 8 low-level + 2 special = 29 micro-benchmarks.
	if got := len(GFXHighScenes()); got != 19 {
		t.Fatalf("high-level scenes = %d, want 19", got)
	}
	if got := len(GFXLowScenes()); got != 8 {
		t.Fatalf("low-level scenes = %d, want 8", got)
	}
	if got := len(GFXSpecialScenes()); got != 2 {
		t.Fatalf("special scenes = %d, want 2", got)
	}
	if err := gfxCheckDurations(); err != nil {
		t.Fatal(err)
	}
}

func TestDurationsMatchCalibration(t *testing.T) {
	for _, w := range AnalysisUnits() {
		target, ok := TargetFor(w.Name)
		if !ok {
			t.Errorf("%s missing from the calibration table", w.Name)
			continue
		}
		if math.Abs(w.Duration()-target.RuntimeSec) > 2.2 {
			t.Errorf("%s duration %.2f s, calibration says %.2f s",
				w.Name, w.Duration(), target.RuntimeSec)
		}
	}
}

func TestTableVIRuntimeIdentities(t *testing.T) {
	dur := func(name string) float64 {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return w.Duration()
	}
	// Full set: 4429.5 s.
	total := 0.0
	for _, w := range AnalysisUnits() {
		total += w.Duration()
	}
	if math.Abs(total-4429.5) > 6 {
		t.Errorf("total runtime %.1f, want 4429.5", total)
	}
	// Naive: 401.7 s.
	naive := dur(NamePCMarkStorage) + dur(NameGB5CPU) + dur(NameGFXSpecial) +
		dur(NameWildLife) + dur(NameGB5Compute)
	if math.Abs(naive-401.7) > 3 {
		t.Errorf("naive runtime %.1f, want 401.7", naive)
	}
	// Select: 865.2 s.
	sel := dur(NameAntutuCPU) + dur(NameAntutuGPU) + dur(NameAntutuMem) +
		dur(NameAntutuUX) + dur(NameGFXSpecial) + dur(NameGB5CPU)
	if math.Abs(sel-865.2) > 4 {
		t.Errorf("select runtime %.1f, want 865.2", sel)
	}
	// Select+GPU: 1108.36 s.
	selGPU := sel + dur(NameGB6CPU)
	if math.Abs(selGPU-1108.36) > 5 {
		t.Errorf("select+GPU runtime %.1f, want 1108.36", selGPU)
	}
	// Wild Life runs for approximately one minute.
	if wl := dur(NameWildLife); math.Abs(wl-60) > 5 {
		t.Errorf("Wild Life runtime %.1f, want ~60", wl)
	}
}

func TestAntutuFullConcatenation(t *testing.T) {
	full := AntutuFull()
	want := AntutuGPUSegment().Duration() + AntutuMemSegment().Duration() +
		AntutuCPUSegment().Duration() + AntutuUXSegment().Duration()
	if math.Abs(full.Duration()-want) > 1e-9 {
		t.Fatalf("Antutu full duration %.2f != segment sum %.2f", full.Duration(), want)
	}
	// The GPU segment runs first (Swordsman opens the suite).
	if full.Phases[0].Name != "Swordsman" {
		t.Fatalf("Antutu opens with %q, want Swordsman", full.Phases[0].Name)
	}
}

func TestAntutuGPUSceneProportions(t *testing.T) {
	// The paper: Swordsman, Refinery and Terracotta occupy 15%, 30% (28+2
	// with loading) and 49% (45+4) of the component's duration.
	w := AntutuGPUSegment()
	total := w.Duration()
	byName := map[string]float64{}
	for _, p := range w.Phases {
		byName[p.Name] = p.Duration / total
	}
	if math.Abs(byName["Swordsman"]-0.15) > 0.01 {
		t.Errorf("Swordsman at %.2f of runtime, want 0.15", byName["Swordsman"])
	}
	if math.Abs(byName["Terracotta Warriors"]-0.45) > 0.01 {
		t.Errorf("Terracotta at %.2f, want 0.45", byName["Terracotta Warriors"])
	}
}

func TestPhaseIndex(t *testing.T) {
	w := Workload{Name: "t", Phases: []Phase{
		{Name: "p1", Duration: 10, CPU: CPUPhase{}},
		{Name: "p2", Duration: 5, CPU: CPUPhase{}},
	}}
	for _, tc := range []struct {
		t    float64
		want int
	}{{3, 0}, {10, 1}, {12, 1}, {100, 1}} {
		if got := w.PhaseIndex(tc.t); got != tc.want {
			t.Errorf("PhaseIndex(%g) = %d, want %d (past the end is the last phase)", tc.t, got, tc.want)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	if err := (Workload{}).Validate(); err == nil {
		t.Error("empty workload accepted")
	}
	if err := (Workload{Name: "x"}).Validate(); err == nil {
		t.Error("phaseless workload accepted")
	}
	bad := Workload{Name: "x", Phases: []Phase{{Name: "p", Duration: -1}}}
	if err := bad.Validate(); err == nil {
		t.Error("negative duration accepted")
	}
	bad = Workload{Name: "x", Phases: []Phase{{
		Name: "p", Duration: 1,
		CPU: CPUPhase{ComputeDuty: 2},
	}}}
	if err := bad.Validate(); err == nil {
		t.Error("duty > 1 accepted")
	}
	bad = Workload{Name: "x", Phases: []Phase{{
		Name: "p", Duration: 1,
		CPU: CPUPhase{Tasks: []TaskSpec{{Count: -1}}},
	}}}
	if err := bad.Validate(); err == nil {
		t.Error("negative task count accepted")
	}
}

// TestValidateRejectsNonFinite covers the inputs the sign checks let
// through: NaN fails every comparison and +Inf passes "> 0", so each must
// be rejected explicitly.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		edit func(*Phase)
	}{
		{"NaN duration", func(p *Phase) { p.Duration = nan }},
		{"+Inf duration", func(p *Phase) { p.Duration = inf }},
		{"NaN duty", func(p *Phase) { p.CPU.ComputeDuty = nan }},
		{"NaN demand", func(p *Phase) { p.CPU.Tasks = []TaskSpec{{Count: 1, Demand: nan}} }},
		{"+Inf demand", func(p *Phase) { p.CPU.Tasks = []TaskSpec{{Count: 1, Demand: inf}} }},
		{"NaN SequentialFrac", func(p *Phase) { p.CPU.Access.SequentialFrac = nan }},
		{"NaN ReuseSkew", func(p *Phase) { p.CPU.Access.ReuseSkew = nan }},
		{"NaN StridedFrac", func(p *Phase) { p.CPU.Access.StridedFrac = nan }},
		{"NaN HotFrac", func(p *Phase) { p.CPU.Access.HotFrac = nan }},
		{"NaN PrefetchCoverage", func(p *Phase) { p.CPU.Access.PrefetchCoverage = nan }},
		{"NaN TakenBias", func(p *Phase) { p.CPU.Branches.TakenBias = nan }},
		{"NaN Entropy", func(p *Phase) { p.CPU.Branches.Entropy = nan }},
		{"NaN Correlated", func(p *Phase) { p.CPU.Branches.Correlated = nan }},
	}
	good := Phase{Name: "p", Duration: 1, CPU: CPUPhase{Tasks: []TaskSpec{{Count: 1, Demand: 0.5}}, ComputeDuty: 0.5}}
	if err := (Workload{Name: "x", Phases: []Phase{good}}).Validate(); err != nil {
		t.Fatalf("finite phase rejected: %v", err)
	}
	for _, tc := range cases {
		p := good
		tc.edit(&p)
		if err := (Workload{Name: "x", Phases: []Phase{p}}).Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestByName(t *testing.T) {
	w, err := ByName(NameGB5CPU)
	if err != nil || w.Name != NameGB5CPU {
		t.Fatalf("ByName failed: %v", err)
	}
	// Executables are reachable too.
	if _, err := ByName("Antutu"); err != nil {
		t.Fatalf("full Antutu not found: %v", err)
	}
	if _, err := ByName("GFXBench T-Rex on-screen"); err != nil {
		t.Fatalf("GFXBench scene not found: %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != 18 {
		t.Fatalf("names = %d", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate unit name %q", n)
		}
		seen[n] = true
	}
}

func TestCalibrationTableComplete(t *testing.T) {
	if len(Targets) != 18 {
		t.Fatalf("targets = %d, want 18", len(Targets))
	}
	groups := map[int]bool{}
	for _, tg := range Targets {
		if tg.RuntimeSec <= 0 || tg.ICBillions <= 0 || tg.IPC <= 0 {
			t.Errorf("%s has non-positive calibration values", tg.Name)
		}
		if tg.Cluster < 0 || tg.Cluster >= NumGroups {
			t.Errorf("%s has invalid cluster group %d", tg.Name, tg.Cluster)
		}
		groups[tg.Cluster] = true
		if _, ok := dutyFactor[tg.Name]; !ok {
			t.Errorf("%s missing a duty factor", tg.Name)
		}
	}
	if len(groups) != NumGroups {
		t.Fatalf("targets cover %d groups, want %d", len(groups), NumGroups)
	}
	if _, ok := TargetFor("nope"); ok {
		t.Fatal("TargetFor accepted an unknown name")
	}
}

func TestPaperConstraintsInCalibration(t *testing.T) {
	group := func(name string) int {
		tg, ok := TargetFor(name)
		if !ok {
			t.Fatalf("no target for %s", name)
		}
		return tg.Cluster
	}
	// Antutu segments share a cluster except Antutu GPU.
	if group(NameAntutuCPU) != group(NameAntutuMem) || group(NameAntutuCPU) != group(NameAntutuUX) {
		t.Error("Antutu CPU/Mem/UX must share a cluster group")
	}
	if group(NameAntutuGPU) == group(NameAntutuCPU) {
		t.Error("Antutu GPU must not share the other segments' group")
	}
	// Naive representatives are the fastest members of their groups.
	reps := map[int]string{
		group(NamePCMarkStorage): NamePCMarkStorage,
		group(NameGB5CPU):        NameGB5CPU,
		group(NameGFXSpecial):    NameGFXSpecial,
		group(NameWildLife):      NameWildLife,
		group(NameGB5Compute):    NameGB5Compute,
	}
	if len(reps) != NumGroups {
		t.Fatalf("naive representatives cover %d groups, want %d", len(reps), NumGroups)
	}
	for _, tg := range Targets {
		rep := reps[tg.Cluster]
		repTarget, _ := TargetFor(rep)
		if tg.RuntimeSec < repTarget.RuntimeSec {
			t.Errorf("%s (%.1f s) is faster than its group representative %s (%.1f s)",
				tg.Name, tg.RuntimeSec, rep, repTarget.RuntimeSec)
		}
	}
}

func TestIPCCalibrationShape(t *testing.T) {
	// The paper's IPC structure: CPU-targeted benchmarks average 1.16,
	// graphics-focused ones 0.55, and Antutu Mem is the low outlier.
	ipc := func(name string) float64 {
		tg, _ := TargetFor(name)
		return tg.IPC
	}
	cpuAvg := (ipc(NameAntutuCPU) + ipc(NameGB5CPU) + ipc(NameGB6CPU)) / 3
	if cpuAvg < 1.0 || cpuAvg > 1.3 {
		t.Errorf("CPU-targeted IPC average %.2f outside [1.0, 1.3] (paper: 1.16)", cpuAvg)
	}
	gfx := []string{NameWildLife, NameWildLifeExtreme, NameGFXHigh, NameGFXLow, NameAntutuGPU}
	sum := 0.0
	for _, n := range gfx {
		sum += ipc(n)
	}
	if avg := sum / float64(len(gfx)); avg < 0.45 || avg > 0.68 {
		t.Errorf("graphics IPC average %.2f outside [0.45, 0.68] (paper: 0.55)", avg)
	}
	// Antutu Mem is the paper's low-IPC outlier among the non-graphics
	// benchmarks (graphics benchmarks average 0.55 and may dip lower).
	for _, tg := range Targets {
		if tg.Name == NameAntutuMem || tg.Cluster == GroupGame {
			continue
		}
		if tg.IPC < ipc(NameAntutuMem) {
			t.Errorf("%s IPC %.2f below Antutu Mem's %.2f; Mem must be the low outlier",
				tg.Name, tg.IPC, ipc(NameAntutuMem))
		}
	}
}

func TestICCalibrationShape(t *testing.T) {
	// IC extremes and average from the paper: min 1 B (GFXBench Special),
	// max 57 B (Geekbench 6 CPU), mean ~14 B.
	var min, max, sum float64
	var minName, maxName string
	min = math.Inf(1)
	for _, tg := range Targets {
		sum += tg.ICBillions
		if tg.ICBillions < min {
			min, minName = tg.ICBillions, tg.Name
		}
		if tg.ICBillions > max {
			max, maxName = tg.ICBillions, tg.Name
		}
	}
	if minName != NameGFXSpecial || math.Abs(min-1) > 0.2 {
		t.Errorf("smallest IC %s %.1fB, want GFXBench Special ~1B", minName, min)
	}
	if maxName != NameGB6CPU || math.Abs(max-57) > 1 {
		t.Errorf("largest IC %s %.1fB, want Geekbench 6 CPU ~57B", maxName, max)
	}
	if mean := sum / float64(len(Targets)); math.Abs(mean-14) > 2 {
		t.Errorf("mean IC %.1fB, want ~14B", mean)
	}
}

func TestNewerBenchmarksHaveHigherIC(t *testing.T) {
	// The paper: newer benchmarks tend to have higher instruction counts
	// (Geekbench 6 vs 5, Wild Life vs Slingshot... the latter compared
	// within 3DMark's generations).
	ic := func(name string) float64 {
		tg, _ := TargetFor(name)
		return tg.ICBillions
	}
	if ic(NameGB6CPU) <= ic(NameGB5CPU) {
		t.Error("Geekbench 6 CPU should out-count Geekbench 5 CPU")
	}
	if ic(NameGB6Compute) <= ic(NameGB5Compute) {
		t.Error("Geekbench 6 Compute should out-count Geekbench 5 Compute")
	}
}

func TestConcat(t *testing.T) {
	a := Workload{Name: "a", Phases: []Phase{{Name: "1", Duration: 1}}}
	b := Workload{Name: "b", Phases: []Phase{{Name: "2", Duration: 2}}}
	c := Concat("c", "s", TargetCPU, a, b)
	if len(c.Phases) != 2 || c.Duration() != 3 {
		t.Fatalf("concat wrong: %d phases, %.1f s", len(c.Phases), c.Duration())
	}
}

func TestPinHelpers(t *testing.T) {
	if *pinLittle != soc.Little || *pinMid != soc.Mid {
		t.Fatal("pin helpers wrong")
	}
}

func TestExecutableDurationSanity(t *testing.T) {
	// Every executable runs for a positive, bounded time.
	for _, w := range Executables() {
		d := w.Duration()
		if d <= 0 || d > 1000 {
			t.Errorf("%s duration %.1f s out of sane range", w.Name, d)
		}
	}
}
