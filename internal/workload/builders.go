package workload

import (
	"mobilebench/internal/aie"
	"mobilebench/internal/branch"
	"mobilebench/internal/cache"
	"mobilebench/internal/cpu"
	"mobilebench/internal/gpu"
	"mobilebench/internal/mem"
	"mobilebench/internal/soc"
)

// This file holds the shared vocabulary of the suite definitions:
// characteristic instruction mixes, memory access patterns, branch profiles
// and thread-demand shapes for the workload families that appear across the
// commercial suites (integer/FP/crypto compute, GEMM, memory stress, image
// and video processing, web/UX, graphics driver work, GPGPU hosting).

const (
	kb = 1024
	mb = 1024 * kb
)

// --- instruction mixes -------------------------------------------------

func mixInteger() cpu.InstrMix {
	return cpu.InstrMix{LoadStoreFrac: 0.32, BranchFrac: 0.18, BaseILP: 2.0}
}

func mixFloat() cpu.InstrMix {
	return cpu.InstrMix{LoadStoreFrac: 0.30, BranchFrac: 0.08, BaseILP: 1.9}
}

func mixCrypto() cpu.InstrMix {
	// Crypto extensions: long dependency chains but tiny working sets and
	// almost no branches.
	return cpu.InstrMix{LoadStoreFrac: 0.22, BranchFrac: 0.05, BaseILP: 2.2}
}

func mixGEMM() cpu.InstrMix {
	// Blocked SIMD matrix multiply: dense FP, streaming loads.
	return cpu.InstrMix{LoadStoreFrac: 0.38, BranchFrac: 0.04, BaseILP: 2.4}
}

func mixMemStress() cpu.InstrMix {
	// Pointer-chasing / copy loops: memory bound by construction.
	return cpu.InstrMix{LoadStoreFrac: 0.40, BranchFrac: 0.10, BaseILP: 1.2, MemParallelism: 0.18}
}

func mixImage() cpu.InstrMix {
	return cpu.InstrMix{LoadStoreFrac: 0.40, BranchFrac: 0.10, BaseILP: 1.9}
}

func mixVideoSW() cpu.InstrMix {
	// Software video codec: SIMD heavy with data-dependent control.
	return cpu.InstrMix{LoadStoreFrac: 0.42, BranchFrac: 0.14, BaseILP: 1.8}
}

func mixIOLoop() cpu.InstrMix {
	// Storage-benchmark CPU side: tight buffer-copy/checksum loops between
	// IO completions — few branches, small working set, high ILP.
	return cpu.InstrMix{LoadStoreFrac: 0.25, BranchFrac: 0.06, BaseILP: 2.3}
}

func mixBrowse() cpu.InstrMix {
	// Web/UX: branchy, indirect, poor locality.
	return cpu.InstrMix{LoadStoreFrac: 0.38, BranchFrac: 0.18, BaseILP: 1.5}
}

func mixDriver() cpu.InstrMix {
	// GPU driver / command submission: kernel-heavy, branchy.
	return cpu.InstrMix{LoadStoreFrac: 0.34, BranchFrac: 0.16, BaseILP: 2.0}
}

func mixML() cpu.InstrMix {
	// NN pre/post-processing on CPU.
	return cpu.InstrMix{LoadStoreFrac: 0.40, BranchFrac: 0.07, BaseILP: 1.8}
}

// --- memory access patterns ---------------------------------------------

func accessCompute(wsMB float64) cache.AccessPattern {
	return cache.AccessPattern{
		WorkingSetBytes:  uint64(wsMB * mb),
		SequentialFrac:   0.50,
		ReuseSkew:        1.4,
		HotFrac:          0.88,
		PrefetchCoverage: 0.85,
	}
}

func accessStreaming(wsMB float64) cache.AccessPattern {
	return cache.AccessPattern{
		WorkingSetBytes:  uint64(wsMB * mb),
		SequentialFrac:   0.93,
		ReuseSkew:        1.1,
		HotFrac:          0.72,
		PrefetchCoverage: 0.92,
	}
}

func accessPointerChase(wsMB float64) cache.AccessPattern {
	return cache.AccessPattern{
		WorkingSetBytes: uint64(wsMB * mb),
		SequentialFrac:  0.02,
		ReuseSkew:       0.0,
		StridedFrac:     0.3,
		HotFrac:         0.80,
	}
}

func accessDriver() cache.AccessPattern {
	// GPU driver and render-thread data: command buffers, scene graphs,
	// driver state — moderate locality plus shared-cache pressure from the
	// GPU's own traffic.
	return cache.AccessPattern{
		WorkingSetBytes:  12 * mb,
		SequentialFrac:   0.35,
		ReuseSkew:        1.1,
		StridedFrac:      0.1,
		HotFrac:          0.87,
		PrefetchCoverage: 0.75,
	}
}

func accessML(wsMB float64) cache.AccessPattern {
	// NN inference activations/weights: streaming with limited reuse.
	return cache.AccessPattern{
		WorkingSetBytes:  uint64(wsMB * mb),
		SequentialFrac:   0.80,
		ReuseSkew:        1.1,
		HotFrac:          0.80,
		PrefetchCoverage: 0.88,
	}
}

func accessData(wsMB float64) cache.AccessPattern {
	// Bulk data manipulation (unzip, parsing, photo pipelines): moderate
	// locality between pure compute and driver churn.
	return cache.AccessPattern{
		WorkingSetBytes:  uint64(wsMB * mb),
		SequentialFrac:   0.40,
		ReuseSkew:        0.95,
		StridedFrac:      0.12,
		HotFrac:          0.78,
		PrefetchCoverage: 0.80,
	}
}

func accessUX(wsMB float64) cache.AccessPattern {
	return cache.AccessPattern{
		WorkingSetBytes:  uint64(wsMB * mb),
		SequentialFrac:   0.30,
		ReuseSkew:        1.4,
		StridedFrac:      0.1,
		HotFrac:          0.86,
		PrefetchCoverage: 0.70,
	}
}

// --- branch profiles ------------------------------------------------------

func branchLoopy() branch.Profile {
	return branch.Profile{StaticBranches: 256, TakenBias: 0.985, Entropy: 0.008, Correlated: 0.35}
}

func branchCompute() branch.Profile {
	return branch.Profile{StaticBranches: 768, TakenBias: 0.96, Entropy: 0.02, Correlated: 0.3}
}

func branchData() branch.Profile {
	// Data-dependent branches (codecs, compression).
	return branch.Profile{StaticBranches: 1536, TakenBias: 0.92, Entropy: 0.045, Correlated: 0.25}
}

func branchWeb() branch.Profile {
	// Interpreter/DOM dispatch: huge footprint, unpredictable.
	return branch.Profile{StaticBranches: 4096, TakenBias: 0.88, Entropy: 0.08, Correlated: 0.2}
}

// --- thread demand shapes --------------------------------------------------

// bgUI is the always-present background demand: UI thread, compositor,
// system services. It keeps the Little cluster moderately busy in every
// benchmark, as the paper's Table V shows.
func bgUI() []TaskSpec {
	return []TaskSpec{
		{Count: 2, Demand: 0.10},
		{Count: 2, Demand: 0.05},
	}
}

// bgLight is a quieter background (storage tests, idle-ish segments).
func bgLight() []TaskSpec {
	return []TaskSpec{{Count: 2, Demand: 0.06}}
}

// singleHeavy is one thread that saturates the Big core, plus background.
func singleHeavy(demand float64) []TaskSpec {
	return append([]TaskSpec{{Count: 1, Demand: demand}}, bgUI()...)
}

// multiCore is n heavy threads that flood all clusters, plus background.
func multiCore(n int, demand float64) []TaskSpec {
	return append([]TaskSpec{{Count: n, Demand: demand}}, bgUI()...)
}

// midWeight is n threads sized for the Mid cluster (the Aitutu shape).
func midWeight(n int, demand float64) []TaskSpec {
	return append([]TaskSpec{{Count: n, Demand: demand}}, bgUI()...)
}

// driverTasks is the CPU side of a GPU-bound phase: a render thread and the
// GPU driver workers, all light enough for the Little cluster
// (Observation #8).
func driverTasks(intensity float64) []TaskSpec {
	return []TaskSpec{
		{Count: 1, Demand: 0.20 * intensity},
		{Count: 2, Demand: 0.13 * intensity},
		{Count: 2, Demand: 0.09},
	}
}

// editingScene is PCMark Work's GPU-accelerated photo/video pipeline:
// compute dispatches throttled by the app's frame pipeline rather than
// free-running, so shaders are busy in sustained but sub-saturated bursts.
func editingScene(workPerPixel, bufMB float64) gpu.Scene {
	s := sceneCompute(fullHDW, fullHDH, workPerPixel, bufMB)
	s.DrawCallsPerFrame = 12000
	return s
}

// --- GPU scenes -------------------------------------------------------------

// sceneGame builds a game-like 3D scene.
func sceneGame(api gpu.API, w, h int, workPerPixel, texMB float64, offscreen bool) gpu.Scene {
	return gpu.Scene{
		API:                  api,
		Width:                w,
		Height:               h,
		WorkPerPixel:         workPerPixel,
		TextureBytesPerFrame: texMB * mb,
		FramebufferFactor:    2.0,
		Offscreen:            offscreen,
		DrawCallsPerFrame:    900,
		TextureWorkingSetMB:  texMB * 4,
	}
}

// sceneCompute builds a GPGPU compute workload.
func sceneCompute(w, h int, workPerPixel, bufMB float64) gpu.Scene {
	return gpu.Scene{
		API:                  gpu.Compute,
		Width:                w,
		Height:               h,
		WorkPerPixel:         workPerPixel,
		TextureBytesPerFrame: bufMB * mb,
		FramebufferFactor:    1.2,
		Offscreen:            true,
		DrawCallsPerFrame:    64,
		TextureWorkingSetMB:  bufMB * 3,
	}
}

// fullHD is the display resolution of the paper's test rig.
const (
	fullHDW = 1920
	fullHDH = 1080
	qhdW    = 2560
	qhdH    = 1440
	uhdW    = 3840
	uhdH    = 2160
)

// --- memory footprints ------------------------------------------------------

func footCompute(heapMB float64) mem.Footprint { return mem.Footprint{CPUHeapMB: heapMB} }

func footGraphics(heapMB, gpuMB float64) mem.Footprint {
	return mem.Footprint{CPUHeapMB: heapMB, GPUMB: gpuMB}
}

func footMedia(heapMB, mediaMB float64) mem.Footprint {
	return mem.Footprint{CPUHeapMB: heapMB, MediaMB: mediaMB}
}

// --- AIE helpers -------------------------------------------------------------

func aieOps(ops ...aie.Demand) []aie.Demand { return ops }

func aieOp(op aie.OpClass, rate float64) aie.Demand { return aie.Demand{Op: op, Rate: rate} }

func aieVideo(op aie.OpClass, codec string, rate float64) aie.Demand {
	return aie.Demand{Op: op, Rate: rate, Codec: codec}
}

// pinLittle pins tasks to the Little cluster.
var pinLittle = func() *soc.ClusterKind { k := soc.Little; return &k }()

// pinMid pins tasks to the Mid cluster.
var pinMid = func() *soc.ClusterKind { k := soc.Mid; return &k }()
