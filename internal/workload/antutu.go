package workload

import (
	"mobilebench/internal/aie"
	"mobilebench/internal/gpu"
	"mobilebench/internal/mem"
)

// Antutu v9 (Cheetah Mobile) is an all-around suite whose four components —
// GPU, Mem, CPU, UX — can only be executed together; the paper segments the
// collected statistics into the four parts. Aitutu is the standalone
// AI benchmark by the same publisher.

// AntutuGPUSegment returns the GPU component: the Swordsman, Refinery and
// Terracotta Warriors game scenes (15%, 30% and 49% of the component's
// duration, with 28%, 31% and 35% CPU load) followed by the Fisheye and
// Blur image-processing tests. The scene-loading phases at 15–17% and
// 45–49% of the execution run one loader thread with the GPU idle, so the
// CPU load dips there instead of spiking as Observation #4 describes
// (EXPERIMENTS.md, Table IV / Figure 2: anchor not reproduced).
func AntutuGPUSegment() Workload {
	const total = 230.0
	return applyDuty(Workload{
		Name:   NameAntutuGPU,
		Suite:  "Antutu v9",
		Target: TargetGPU,
		Phases: []Phase{
			{
				// Swordsman: the newest, Unity-based scene.
				Name:     "Swordsman",
				Duration: 0.15 * total,
				CPU: CPUPhase{
					Tasks:       []TaskSpec{{Count: 1, Demand: 0.15}, {Count: 4, Demand: 0.12}},
					Mix:         mixDriver(),
					Access:      accessDriver(),
					Branches:    branchData(),
					ComputeDuty: 1.0,
				},
				GPU: sceneGame(gpu.Vulkan, fullHDW, fullHDH, 3400, 240, false),
				Mem: footGraphics(420, 700),
			},
			{
				Name:     "load Refinery",
				Duration: 0.02 * total,
				CPU: CPUPhase{
					Tasks:       singleHeavy(0.85),
					Mix:         mixDriver(),
					Access:      accessStreaming(24),
					Branches:    branchData(),
					ComputeDuty: 0.8,
				},
				Mem: footGraphics(420, 900),
			},
			{
				Name:     "Refinery",
				Duration: 0.28 * total,
				CPU: CPUPhase{
					Tasks:       []TaskSpec{{Count: 5, Demand: 0.14}},
					Mix:         mixDriver(),
					Access:      accessDriver(),
					Branches:    branchData(),
					ComputeDuty: 1.0,
				},
				GPU: sceneGame(gpu.OpenGL, fullHDW, fullHDH, 3600, 260, false),
				Mem: footGraphics(440, 1000),
			},
			{
				Name:     "load Terracotta",
				Duration: 0.04 * total,
				CPU: CPUPhase{
					Tasks:       singleHeavy(0.9),
					Mix:         mixDriver(),
					Access:      accessStreaming(24),
					Branches:    branchData(),
					ComputeDuty: 0.8,
				},
				Mem: footGraphics(440, 1200),
			},
			{
				// Terracotta Warriors: the longest, heaviest scene; Antutu
				// GPU's 4.3 GB peak memory usage occurs here.
				Name:     "Terracotta Warriors",
				Duration: 0.45 * total,
				CPU: CPUPhase{
					Tasks:       []TaskSpec{{Count: 6, Demand: 0.13}},
					Mix:         mixDriver(),
					Access:      accessDriver(),
					Branches:    branchData(),
					ComputeDuty: 1.0,
				},
				GPU: sceneGame(gpu.OpenGL, fullHDW, fullHDH, 4200, 290, false),
				Mem: footGraphics(480, 1500),
			},
			{
				// Fisheye and Blur: simple image-processing tests.
				Name:     "Fisheye",
				Duration: 0.03 * total,
				CPU: CPUPhase{
					Tasks:       midWeight(2, 0.5),
					Mix:         mixImage(),
					Access:      accessStreaming(32),
					Branches:    branchLoopy(),
					ComputeDuty: 1.2,
				},
				GPU: sceneCompute(fullHDW, fullHDH, 900, 90),
				AIE: aieOps(aieOp(aie.OpImageProc, 0.8)),
				Mem: footGraphics(420, 600),
			},
			{
				Name:     "Blur",
				Duration: 0.03 * total,
				CPU: CPUPhase{
					Tasks:       midWeight(2, 0.5),
					Mix:         mixImage(),
					Access:      accessStreaming(32),
					Branches:    branchLoopy(),
					ComputeDuty: 1.2,
				},
				GPU: sceneCompute(fullHDW, fullHDH, 1100, 90),
				AIE: aieOps(aieOp(aie.OpImageProc, 0.9)),
				Mem: footGraphics(420, 600),
			},
		},
	})
}

// AntutuMemSegment returns the Mem component: RAM bandwidth and latency
// stress followed by storage tests. Its dominance by cache misses gives it
// the lowest IPC of the studied benchmarks (0.45).
func AntutuMemSegment() Workload {
	return applyDuty(Workload{
		Name:   NameAntutuMem,
		Suite:  "Antutu v9",
		Target: TargetMemory,
		Phases: []Phase{
			{
				Name:     "RAM bandwidth",
				Duration: 30,
				CPU: CPUPhase{
					Tasks:       append([]TaskSpec{{Count: 4, Demand: 0.6}, {Count: 2, Demand: 0.2}}, bgLight()...),
					Mix:         mixMemStress(),
					Access:      accessStreaming(24),
					Branches:    branchData(),
					ComputeDuty: 1.2,
				},
				Mem: footCompute(900),
			},
			{
				Name:     "RAM latency",
				Duration: 25,
				CPU: CPUPhase{
					Tasks:       append([]TaskSpec{{Count: 1, Demand: 0.85}, {Count: 2, Demand: 0.15}}, bgLight()...),
					Mix:         mixMemStress(),
					Access:      accessPointerChase(24),
					Branches:    branchData(),
					ComputeDuty: 0.9,
				},
				Mem: footCompute(1000),
			},
			{
				Name:     "storage sequential",
				Duration: 35,
				CPU: CPUPhase{
					Tasks:       append([]TaskSpec{{Count: 1, Demand: 0.4}}, bgUI()...),
					Mix:         mixInteger(),
					Access:      accessUX(8),
					Branches:    branchLoopy(),
					ComputeDuty: 0.22,
				},
				IO:  mem.IODemand{SeqReadMBs: 700, SeqWriteMBs: 420},
				Mem: footCompute(700),
			},
			{
				Name:     "storage random",
				Duration: 40,
				CPU: CPUPhase{
					Tasks:       append([]TaskSpec{{Count: 1, Demand: 0.45}}, bgUI()...),
					Mix:         mixInteger(),
					Access:      accessUX(10),
					Branches:    branchData(),
					ComputeDuty: 0.22,
				},
				IO:  mem.IODemand{RandReadIOPS: 70000, RandWriteIOPS: 55000, DatabaseOpsPerSec: 8000},
				Mem: footCompute(700),
			},
		},
	})
}

// AntutuCPUSegment returns the CPU component: mathematical operations
// (opening with a multi-threaded GEMM, hence the initial load uptick),
// common algorithms such as PNG decoding, and a closing multi-core test.
func AntutuCPUSegment() Workload {
	return applyDuty(Workload{
		Name:   NameAntutuCPU,
		Suite:  "Antutu v9",
		Target: TargetCPU,
		Phases: []Phase{
			{
				Name:     "GEMM",
				Duration: 20,
				CPU: CPUPhase{
					Tasks:       multiCore(6, 0.75),
					Mix:         mixGEMM(),
					Access:      accessML(16),
					Branches:    branchLoopy(),
					ComputeDuty: 1.8,
				},
				AIE: aieOps(aieOp(aie.OpGEMM, 0.3)),
				Mem: footCompute(800),
			},
			{
				Name:     "math (FFT, MAP)",
				Duration: 35,
				CPU: CPUPhase{
					Tasks:       singleHeavy(0.9),
					Mix:         mixFloat(),
					Access:      accessCompute(8),
					Branches:    branchCompute(),
					ComputeDuty: 1.4,
				},
				AIE: aieOps(aieOp(aie.OpFFT, 0.7)),
				Mem: footCompute(850),
			},
			{
				Name:     "common algorithms (PNG decode)",
				Duration: 48,
				CPU: CPUPhase{
					Tasks:       singleHeavy(0.85),
					Mix:         mixInteger(),
					Access:      accessData(16),
					Branches:    branchData(),
					ComputeDuty: 1.3,
				},
				AIE: aieOps(aieOp(aie.OpImageProc, 0.7)),
				Mem: footCompute(900),
			},
			{
				Name:     "multi-core",
				Duration: 32,
				CPU: CPUPhase{
					Tasks:       multiCore(8, 0.85),
					Mix:         mixInteger(),
					Access:      accessCompute(16),
					Branches:    branchCompute(),
					ComputeDuty: 1.6,
				},
				Mem: footCompute(950),
			},
			{
				Name:     "scoring",
				Duration: 15,
				CPU: CPUPhase{
					Tasks:       bgUI(),
					Mix:         mixBrowse(),
					Access:      accessUX(6),
					Branches:    branchWeb(),
					ComputeDuty: 0.3,
				},
				Mem: footCompute(700),
			},
		},
	})
}

// AntutuUXSegment returns the UX component: data processing and security,
// image and video processing, the scroll-delay test and webview rendering.
// The video tests cover H264, H265, VP9 and AV1; AV1 lacks hardware support
// on the platform, so its decode falls back to the CPU and drives the
// component's late CPU-load spike.
func AntutuUXSegment() Workload {
	return applyDuty(Workload{
		Name:   NameAntutuUX,
		Suite:  "Antutu v9",
		Target: TargetUX,
		Phases: []Phase{
			{
				Name:     "data processing",
				Duration: 30,
				CPU: CPUPhase{
					Tasks:       append([]TaskSpec{{Count: 1, Demand: 0.9}, {Count: 2, Demand: 0.25}}, bgUI()...),
					Mix:         mixInteger(),
					Access:      accessData(28),
					Branches:    branchData(),
					ComputeDuty: 1.2,
				},
				Mem: footCompute(850),
			},
			{
				Name:     "data security",
				Duration: 25,
				CPU: CPUPhase{
					Tasks:       append([]TaskSpec{{Count: 1, Demand: 0.95}, {Count: 1, Demand: 0.25}}, bgUI()...),
					Mix:         mixCrypto(),
					Access:      accessCompute(6),
					Branches:    branchLoopy(),
					ComputeDuty: 1.3,
				},
				Mem: footCompute(850),
			},
			{
				Name:     "image processing",
				Duration: 30,
				CPU: CPUPhase{
					Tasks:       midWeight(2, 0.6),
					Mix:         mixImage(),
					Access:      accessML(16),
					Branches:    branchLoopy(),
					ComputeDuty: 1.2,
				},
				AIE: aieOps(aieOp(aie.OpImageProc, 0.5)),
				Mem: footMedia(800, 300),
			},
			{
				// Hardware-accelerated formats: decoded on the AIE with
				// short ~50% load peaks.
				Name:     "video decode (H264/H265/VP9)",
				Duration: 25,
				CPU: CPUPhase{
					Tasks:       append([]TaskSpec{{Count: 2, Demand: 0.22}}, bgUI()...),
					Mix:         mixVideoSW(),
					Access:      accessStreaming(24),
					Branches:    branchData(),
					ComputeDuty: 0.6,
				},
				AIE: aieOps(
					aieVideo(aie.OpVideoDecode, "H264", 0.35),
					aieVideo(aie.OpVideoDecode, "H265", 0.4),
					aieVideo(aie.OpVideoDecode, "VP9", 0.3),
				),
				Mem: footMedia(800, 500),
			},
			{
				// AV1 is not supported by the SoC's AIE: software decode
				// lands on the CPU (the paper's late CPU-load surge).
				Name:     "video decode (AV1, software)",
				Duration: 15,
				CPU: CPUPhase{
					Tasks:       multiCore(3, 0.6),
					Mix:         mixVideoSW(),
					Access:      accessStreaming(80),
					Branches:    branchData(),
					ComputeDuty: 1.4,
				},
				AIE: aieOps(aieVideo(aie.OpVideoDecode, "AV1", 0.6)),
				Mem: footMedia(850, 550),
			},
			{
				Name:     "video encode",
				Duration: 20,
				CPU: CPUPhase{
					Tasks:       singleHeavy(0.8),
					Mix:         mixVideoSW(),
					Access:      accessStreaming(24),
					Branches:    branchData(),
					ComputeDuty: 1.0,
				},
				AIE: aieOps(aieVideo(aie.OpVideoEncode, "H264", 0.4)),
				Mem: footMedia(850, 500),
			},
			{
				// Scroll delay: the AIE assists in short bursts (the
				// paper's "short peaks close to 50%").
				Name:     "scroll delay (burst)",
				Duration: 7,
				CPU: CPUPhase{
					Tasks:       bgUI(),
					Mix:         mixBrowse(),
					Access:      accessData(28),
					Branches:    branchWeb(),
					ComputeDuty: 0.8,
				},
				AIE: aieOps(aieOp(aie.OpScroll, 3.8)),
				Mem: footCompute(900),
			},
			{
				Name:     "scroll delay",
				Duration: 18,
				CPU: CPUPhase{
					Tasks:       bgUI(),
					Mix:         mixBrowse(),
					Access:      accessData(28),
					Branches:    branchWeb(),
					ComputeDuty: 0.8,
				},
				AIE: aieOps(aieOp(aie.OpScroll, 0.3)),
				Mem: footCompute(900),
			},
			{
				Name:     "webview rendering",
				Duration: 20.2,
				CPU: CPUPhase{
					Tasks:       append([]TaskSpec{{Count: 2, Demand: 0.2}}, bgUI()...),
					Mix:         mixBrowse(),
					Access:      accessData(28),
					Branches:    branchWeb(),
					ComputeDuty: 1.0,
				},
				AIE: aieOps(aieOp(aie.OpScroll, 0.3)),
				Mem: footCompute(950),
			},
		},
	})
}

// nameAntutu names the whole Antutu run, an executable but no analysis
// unit.
const nameAntutu = "Antutu"

// AntutuFull returns the whole Antutu run in its execution order (GPU, Mem,
// CPU, UX); users cannot execute the components individually.
func AntutuFull() Workload {
	return Concat(nameAntutu, "Antutu v9", TargetUX,
		AntutuGPUSegment(), AntutuMemSegment(), AntutuCPUSegment(), AntutuUXSegment())
}

// Aitutu returns the standalone AI benchmark: image classification, object
// detection and super-resolution. Its NN inference pipelines keep the Mid
// cluster loaded longer than the Big core — unique among the studied
// benchmarks (Observation #7).
func Aitutu() Workload {
	return applyDuty(Workload{
		Name:   NameAitutu,
		Suite:  "Aitutu v2",
		Target: TargetAI,
		Phases: []Phase{
			{
				Name:     "image classification",
				Duration: 50,
				CPU: CPUPhase{
					Tasks:       midWeight(4, 0.45),
					Mix:         mixML(),
					Access:      accessML(14),
					Branches:    branchCompute(),
					ComputeDuty: 1.3,
				},
				AIE: aieOps(aieOp(aie.OpConv, 0.35)),
				Mem: footCompute(1100),
			},
			{
				Name:     "object detection",
				Duration: 55,
				CPU: CPUPhase{
					Tasks:       midWeight(4, 0.5),
					Mix:         mixML(),
					Access:      accessML(16),
					Branches:    branchCompute(),
					ComputeDuty: 1.3,
				},
				AIE: aieOps(aieOp(aie.OpConv, 0.4)),
				Mem: footCompute(1200),
			},
			{
				Name:     "super resolution",
				Duration: 45,
				CPU: CPUPhase{
					Tasks:       midWeight(2, 0.45),
					Mix:         mixML(),
					Access:      accessML(18),
					Branches:    branchCompute(),
					ComputeDuty: 1.2,
				},
				AIE: aieOps(aieOp(aie.OpSuperRes, 0.3)),
				Mem: footCompute(1250),
			},
		},
	})
}
