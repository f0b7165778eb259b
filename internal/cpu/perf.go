// Package cpu provides the per-core performance model and DVFS governors.
//
// The performance model converts a workload phase's intrinsic properties
// (instruction mix, instruction-level parallelism) plus the measured memory
// and branch behaviour into an achieved IPC. The form follows the classic
// interval/CPI-stack model: achieved CPI is the base CPI of the mix plus
// stall components contributed by cache misses (weighted by the latency of
// the level that serviced them) and branch mispredictions (pipeline refill).
package cpu

import "mobilebench/internal/soc"

// InstrMix summarizes the dynamic instruction mix of a phase.
type InstrMix struct {
	// LoadStoreFrac is the fraction of instructions that access memory.
	LoadStoreFrac float64
	// BranchFrac is the fraction of instructions that are branches.
	BranchFrac float64
	// BaseILP is the IPC the mix would achieve on the Big core with a
	// perfect memory system and perfect branch prediction. It captures
	// dependency chains, FP/SIMD density and other intrinsic limits.
	BaseILP float64
	// MemParallelism in (0,1] scales how much of the core's memory-level
	// parallelism the mix can exploit: independent streaming loads use all
	// of it (1.0), dependent pointer chases almost none. Zero means 1.0.
	MemParallelism float64
}

// Clamp returns the mix with fields forced into valid ranges.
func (m InstrMix) Clamp() InstrMix {
	c := func(v, lo, hi float64) float64 {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	m.LoadStoreFrac = c(m.LoadStoreFrac, 0, 0.8)
	m.BranchFrac = c(m.BranchFrac, 0, 0.4)
	m.BaseILP = c(m.BaseILP, 0.1, 8)
	if m.MemParallelism <= 0 || m.MemParallelism > 1 {
		m.MemParallelism = 1
	}
	return m
}

// MissProfile is the memory/branch behaviour measured by the sampled cache
// and branch models for one interval, expressed per instruction.
type MissProfile struct {
	// MissesPerInstr[i] is the per-instruction miss count at level i+1
	// (L1D, L2, L3, SLC). A "miss at SLC" is a DRAM access.
	MissesPerInstr [4]float64
	// BranchMissPerInstr is mispredictions per instruction.
	BranchMissPerInstr float64
}

// Penalties are the stall costs of the platform in core cycles.
type Penalties struct {
	// LevelCycles[i] is the extra latency to reach level i+2 after
	// missing level i+1 (L2, L3, SLC, DRAM service latencies).
	LevelCycles [4]float64
	// BranchCycles is the pipeline refill cost of a misprediction.
	BranchCycles float64
	// MLP divides memory stall cycles to account for memory-level
	// parallelism (overlapping misses); >= 1.
	MLP float64
}

// DefaultPenalties returns latencies representative of a Snapdragon-class
// SoC at nominal frequency.
func DefaultPenalties(cl soc.CPUCluster) Penalties {
	p := Penalties{
		LevelCycles:  [4]float64{10, 25, 40, 140}, // to L2, L3, SLC, DRAM
		BranchCycles: 12,
		MLP:          3.5,
	}
	switch cl.Kind {
	case soc.Big:
		p.BranchCycles = 14 // deeper pipeline
		p.MLP = 4.5         // more outstanding misses
	case soc.Mid:
		p.BranchCycles = 12
		p.MLP = 3.5
	case soc.Little:
		p.BranchCycles = 8 // shallow in-order pipeline
		p.MLP = 2.0
		p.LevelCycles = [4]float64{8, 22, 36, 130}
	}
	return p
}

// Contention scales miss penalties when shared resources are loaded.
type Contention struct {
	// GPUBusLoad in [0,1] is how busy the GPU's memory bus is; heavy GPU
	// traffic lengthens CPU DRAM service and displaces shared-cache lines
	// (the paper attributes graphics benchmarks' low IPC to exactly this).
	GPUBusLoad float64
	// MemBandwidthLoad in [0,1] is total DRAM utilization.
	MemBandwidthLoad float64
}

// IPC computes the achieved IPC for a cluster's core given the mix, the
// measured miss profile, penalties and contention.
func IPC(cl soc.CPUCluster, mix InstrMix, miss MissProfile, pen Penalties, cont Contention) float64 {
	mix = mix.Clamp()
	base := mix.BaseILP * cl.BaseIPCScale
	if w := float64(cl.IssueWidth); base > w {
		base = w
	}
	if base <= 0 {
		base = 0.1
	}
	baseCPI := 1 / base

	// Memory stall component: each miss at level i pays the latency to the
	// next level, divided by achievable memory-level parallelism. GPU bus
	// pressure inflates the DRAM component.
	memCPI := 0.0
	for i, mpi := range miss.MissesPerInstr {
		lat := pen.LevelCycles[i]
		if i == 3 { // DRAM
			lat *= 1 + 0.8*cont.GPUBusLoad + 0.5*cont.MemBandwidthLoad
		}
		memCPI += mpi * lat
	}
	mlp := 1 + (pen.MLP-1)*mix.MemParallelism
	memCPI /= mlp

	branchCPI := miss.BranchMissPerInstr * pen.BranchCycles

	return 1 / (baseCPI + memCPI + branchCPI)
}
