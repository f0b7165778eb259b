// Package workload models the commercial mobile benchmark suites as
// phase-based synthetic workloads.
//
// A Workload is a sequence of Phases; each phase declares what the
// benchmark is doing during that interval — CPU thread demands and their
// microarchitectural character (instruction mix, memory access pattern,
// branch behaviour), the GPU scene being rendered, AIE/DSP operation
// demands, storage IO and memory residency. The simulator executes phases
// against the platform models; every counter the analysis layer consumes
// emerges from that execution.
//
// The suite definitions in this package (threedmark.go, antutu.go,
// geekbench.go, gfxbench.go, pcmark.go) are calibrated against every number
// the paper reports; calibration.go records the targets.
package workload

import (
	"fmt"
	"math"

	"mobilebench/internal/aie"
	"mobilebench/internal/branch"
	"mobilebench/internal/cache"
	"mobilebench/internal/cpu"
	"mobilebench/internal/gpu"
	"mobilebench/internal/mem"
	"mobilebench/internal/soc"
)

// TaskSpec declares Count identical runnable threads with the given
// capacity demand (in Big-core units, see sched.Task).
type TaskSpec struct {
	Count    int
	Demand   float64
	Affinity *soc.ClusterKind
}

// CPUPhase is the CPU-side behaviour of a phase.
type CPUPhase struct {
	// Tasks is the thread demand the scheduler places on clusters.
	Tasks []TaskSpec
	// Mix is the dynamic instruction mix.
	Mix cpu.InstrMix
	// Access parameterizes the synthetic memory reference stream.
	Access cache.AccessPattern
	// Branches parameterizes the synthetic branch stream.
	Branches branch.Profile
	// ComputeDuty is the fraction of busy time spent retiring the
	// benchmark's own instructions, as opposed to kernel, driver and
	// spin-wait work that process-scoped profiler counters exclude.
	// Mobile benchmarks spend most wall time in setup, UI and render
	// waits, which is why published dynamic instruction counts (1-57
	// billion) are far below platform peak throughput.
	ComputeDuty float64
}

// Phase is one behavioural interval of a benchmark.
type Phase struct {
	// Name labels the phase (e.g. "multi-core", "Swordsman").
	Name string
	// Duration is the phase's wall-clock duration in seconds on the
	// reference platform. Commercial benchmarks run fixed scenes/tests,
	// so duration is an input; per-run jitter is added by the simulator.
	Duration float64
	CPU      CPUPhase
	GPU      gpu.Scene
	AIE      []aie.Demand
	IO       mem.IODemand
	Mem      mem.Footprint
}

// Validate reports whether the phase is well-formed.
// The comparisons are written so that NaN fails them.
func (p Phase) Validate() error {
	if !(p.Duration > 0 && p.Duration <= math.MaxFloat64) {
		return fmt.Errorf("workload: phase %q has duration %g, want finite and positive", p.Name, p.Duration)
	}
	for _, t := range p.CPU.Tasks {
		if t.Count < 0 || !(t.Demand >= 0 && t.Demand <= math.MaxFloat64) {
			return fmt.Errorf("workload: phase %q has task spec count %d demand %g, want non-negative and finite", p.Name, t.Count, t.Demand)
		}
	}
	if !(p.CPU.ComputeDuty >= 0 && p.CPU.ComputeDuty <= 1) {
		return fmt.Errorf("workload: phase %q has ComputeDuty %g outside [0,1]", p.Name, p.CPU.ComputeDuty)
	}
	// Clamp forces the access and branch fractions into range but passes
	// NaN through.
	a, b := p.CPU.Access, p.CPU.Branches
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Access.SequentialFrac", a.SequentialFrac}, {"Access.ReuseSkew", a.ReuseSkew},
		{"Access.StridedFrac", a.StridedFrac}, {"Access.HotFrac", a.HotFrac},
		{"Access.PrefetchCoverage", a.PrefetchCoverage}, {"Branches.TakenBias", b.TakenBias},
		{"Branches.Entropy", b.Entropy}, {"Branches.Correlated", b.Correlated},
	} {
		if math.IsNaN(f.v) {
			return fmt.Errorf("workload: phase %q has NaN %s", p.Name, f.name)
		}
	}
	return nil
}

// TargetHW identifies what a benchmark primarily stresses (Table I).
type TargetHW string

// Target hardware categories from Table I of the paper.
const (
	TargetCPU     TargetHW = "CPU"
	TargetGPU     TargetHW = "GPU"
	TargetMemory  TargetHW = "Memory subsystem"
	TargetStorage TargetHW = "Storage subsystem"
	TargetUX      TargetHW = "Everyday tasks"
	TargetAI      TargetHW = "AI-related tasks"
)

// Workload is a runnable benchmark or benchmark segment.
type Workload struct {
	// Name is the analysis-unit name as used in the paper's figures
	// (e.g. "Geekbench 5 CPU").
	Name string
	// Suite is the publishing suite ("Geekbench 5").
	Suite string
	// Target is the hardware the benchmark aims at.
	Target TargetHW
	// Phases is the behaviour timeline.
	Phases []Phase
}

// Duration returns the nominal total duration in seconds.
func (w Workload) Duration() float64 {
	total := 0.0
	for _, p := range w.Phases {
		total += p.Duration
	}
	return total
}

// Validate checks the workload definition.
func (w Workload) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("workload: empty name")
	}
	if len(w.Phases) == 0 {
		return fmt.Errorf("workload %s: no phases", w.Name)
	}
	for _, p := range w.Phases {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("workload %s: %w", w.Name, err)
		}
	}
	return nil
}

// PhaseIndex returns the index of the phase active at nominal time t.
// Past the end it returns the last phase's.
func (w Workload) PhaseIndex(t float64) int {
	acc := 0.0
	for i, p := range w.Phases {
		if t < acc+p.Duration {
			return i
		}
		acc += p.Duration
	}
	return len(w.Phases) - 1
}

// Concat builds a workload by concatenating the phases of several
// workloads; used for suites that only execute as a whole (Antutu) and for
// GFXBench's category groupings.
func Concat(name, suite string, target TargetHW, parts ...Workload) Workload {
	var phases []Phase
	for _, p := range parts {
		phases = append(phases, p.Phases...)
	}
	return Workload{Name: name, Suite: suite, Target: target, Phases: phases}
}
