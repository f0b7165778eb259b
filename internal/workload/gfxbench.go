package workload

import (
	"fmt"

	"mobilebench/internal/aie"
	"mobilebench/internal/gpu"
)

// GFXBench v5 (Kishonti): 29 micro-benchmarks grouped — following the
// benchmark designers' classification — into High-Level game-like scenes
// (19 variants of Aztec Ruins, Car Chase, Manhattan and T-Rex across APIs,
// resolutions and on-/off-screen targets), Low-Level tests (8 variants
// measuring ALU, driver overhead, texturing and tessellation) and the
// Special render-quality tests (2), which compare rendered frames against a
// reference with a PSNR metric computed on the AIE.
//
// On-screen variants render at the display's Full HD resolution under the
// vsync cap; off-screen variants render to memory without the cap, which is
// why they impose higher GPU load (+14.5% measured for High-Level, +62.85%
// for Low-Level).

// gfxScene describes one GFXBench micro-benchmark.
type gfxScene struct {
	name      string
	dur       float64
	api       gpu.API
	w, h      int
	wpp       float64
	texMB     float64
	offscreen bool
	drawCalls float64
	// intensity scales the CPU driver work.
	intensity float64
}

// highScenes lists the 19 High-Level micro-benchmarks (durations total
// 1400 s).
var highScenes = []gfxScene{
	{"Aztec Ruins Normal (OpenGL) on-screen", 75, gpu.OpenGL, fullHDW, fullHDH, 4600, 260, false, 900, 1.0},
	{"Aztec Ruins Normal (OpenGL) 1080p off-screen", 75, gpu.OpenGL, fullHDW, fullHDH, 4600, 260, true, 8500, 1.1},
	{"Aztec Ruins Normal (Vulkan) on-screen", 72, gpu.Vulkan, fullHDW, fullHDH, 4600, 260, false, 900, 0.9},
	{"Aztec Ruins Normal (Vulkan) 1080p off-screen", 72, gpu.Vulkan, fullHDW, fullHDH, 4600, 260, true, 20000, 1.0},
	{"Aztec Ruins High (OpenGL) on-screen", 76, gpu.OpenGL, fullHDW, fullHDH, 5400, 300, false, 1100, 1.0},
	{"Aztec Ruins High (OpenGL) 1440p off-screen", 76, gpu.OpenGL, qhdW, qhdH, 5400, 300, true, 8500, 1.1},
	{"Aztec Ruins High (Vulkan) on-screen", 74, gpu.Vulkan, fullHDW, fullHDH, 5400, 300, false, 1100, 0.9},
	{"Aztec Ruins High (Vulkan) 1080p off-screen", 74, gpu.Vulkan, fullHDW, fullHDH, 5400, 300, true, 20000, 1.0},
	{"Aztec Ruins High (Vulkan) 4K off-screen", 74, gpu.Vulkan, uhdW, uhdH, 5400, 320, true, 20000, 1.0},
	{"Car Chase on-screen", 75, gpu.OpenGL, fullHDW, fullHDH, 5600, 280, false, 1300, 1.2},
	{"Car Chase 1080p off-screen", 75, gpu.OpenGL, fullHDW, fullHDH, 5600, 280, true, 8500, 1.3},
	{"Car Chase 1440p off-screen", 73, gpu.OpenGL, qhdW, qhdH, 5600, 280, true, 8500, 1.3},
	{"Manhattan 3.1 on-screen", 73, gpu.OpenGL, fullHDW, fullHDH, 5000, 240, false, 1000, 1.0},
	{"Manhattan 3.1 1080p off-screen", 73, gpu.OpenGL, fullHDW, fullHDH, 5000, 240, true, 8500, 1.1},
	{"Manhattan 3.1.1 1440p off-screen", 73, gpu.OpenGL, qhdW, qhdH, 5000, 240, true, 8500, 1.1},
	{"Manhattan 3.0 on-screen", 71, gpu.OpenGL, fullHDW, fullHDH, 4600, 220, false, 900, 0.9},
	{"Manhattan 3.0 1080p off-screen", 71, gpu.OpenGL, fullHDW, fullHDH, 4600, 220, true, 8500, 1.0},
	{"T-Rex on-screen", 74, gpu.OpenGL, fullHDW, fullHDH, 4200, 160, false, 700, 0.8},
	{"T-Rex 1080p off-screen", 74, gpu.OpenGL, fullHDW, fullHDH, 4200, 160, true, 8500, 0.9},
}

// lowScenes lists the 8 Low-Level micro-benchmarks (durations total 600 s).
var lowScenes = []gfxScene{
	{"ALU 2 on-screen", 76, gpu.OpenGL, fullHDW, fullHDH, 2900, 60, false, 300, 0.6},
	{"ALU 2 off-screen", 76, gpu.OpenGL, fullHDW, fullHDH, 2900, 60, true, 6100, 0.6},
	{"Driver Overhead 2 on-screen", 75, gpu.OpenGL, fullHDW, fullHDH, 2200, 80, false, 4200, 1.5},
	{"Driver Overhead 2 off-screen", 75, gpu.OpenGL, fullHDW, fullHDH, 2200, 80, true, 6100, 1.6},
	{"Texturing on-screen", 75, gpu.OpenGL, fullHDW, fullHDH, 2400, 260, false, 500, 0.7},
	{"Texturing off-screen", 75, gpu.OpenGL, fullHDW, fullHDH, 2400, 260, true, 6100, 0.7},
	{"Tessellation on-screen", 74, gpu.OpenGL, fullHDW, fullHDH, 3100, 100, false, 800, 0.8},
	{"Tessellation off-screen", 74, gpu.OpenGL, fullHDW, fullHDH, 3100, 100, true, 6100, 0.8},
}

// specialScene describes one Special render-quality test.
type specialScene struct {
	name          string
	dur, psnrRate float64
}

// specialScenes lists the 2 Special render-quality tests.
var specialScenes = []specialScene{
	{"Render Quality", 22.5, 3.4},
	{"Render Quality (high precision)", 22.5, 4.4},
}

// gfxPrefix starts the name of every GFXBench micro-benchmark.
const gfxPrefix = "GFXBench "

// sceneWorkload builds the runnable workload of one micro-benchmark.
func sceneWorkload(s gfxScene) Workload {
	scene := sceneGame(s.api, s.w, s.h, s.wpp, s.texMB, s.offscreen)
	scene.DrawCallsPerFrame = s.drawCalls
	return Workload{
		Name:   gfxPrefix + s.name,
		Suite:  "GFXBench v5",
		Target: TargetGPU,
		Phases: []Phase{
			{
				Name:     "load",
				Duration: 3,
				CPU: CPUPhase{
					Tasks:       singleHeavy(0.5),
					Mix:         mixDriver(),
					Access:      accessStreaming(64),
					Branches:    branchData(),
					ComputeDuty: 0.4,
				},
				Mem: footGraphics(260, s.texMB*3),
			},
			{
				Name:     s.name,
				Duration: s.dur - 3,
				CPU: CPUPhase{
					Tasks:       driverTasks(s.intensity),
					Mix:         mixDriver(),
					Access:      accessDriver(),
					Branches:    branchData(),
					ComputeDuty: 1.0,
				},
				GPU: scene,
				Mem: footGraphics(300, s.texMB*4),
			},
		},
	}
}

// specialWorkload builds one render-quality test: render a reference frame,
// then compute PSNR (based on mean square error) on the AIE at the test's
// rate.
func specialWorkload(s specialScene) Workload {
	render := 0.6 * s.dur
	return Workload{
		Name:   gfxPrefix + s.name,
		Suite:  "GFXBench v5",
		Target: TargetGPU,
		Phases: []Phase{
			{
				Name:     "render frame",
				Duration: render,
				CPU: CPUPhase{
					Tasks:       driverTasks(0.5),
					Mix:         mixDriver(),
					Access:      accessDriver(),
					Branches:    branchData(),
					ComputeDuty: 0.5,
				},
				GPU: sceneGame(gpu.OpenGL, fullHDW, fullHDH, 4800, 280, false),
				Mem: footGraphics(280, 600),
			},
			{
				// PSNR against the reference frame: AIE-heavy, bursty
				// (the paper notes the high-load timestamps are not
				// contiguous).
				Name:     "PSNR compare",
				Duration: s.dur - render,
				CPU: CPUPhase{
					Tasks:       bgUI(),
					Mix:         mixImage(),
					Access:      accessStreaming(32),
					Branches:    branchLoopy(),
					ComputeDuty: 0.8,
				},
				AIE: aieOps(aieOp(aie.OpPSNR, s.psnrRate)),
				Mem: footGraphics(280, 500),
			},
		},
	}
}

// GFXSpecialScenes returns the two Special micro-benchmarks.
func GFXSpecialScenes() []Workload {
	out := make([]Workload, len(specialScenes))
	for i, s := range specialScenes {
		out[i] = specialWorkload(s)
	}
	return out
}

// GFXHighScenes returns the 19 High-Level micro-benchmarks.
func GFXHighScenes() []Workload {
	out := make([]Workload, len(highScenes))
	for i, s := range highScenes {
		out[i] = sceneWorkload(s)
	}
	return out
}

// GFXLowScenes returns the 8 Low-Level micro-benchmarks.
func GFXLowScenes() []Workload {
	out := make([]Workload, len(lowScenes))
	for i, s := range lowScenes {
		out[i] = sceneWorkload(s)
	}
	return out
}

// GFXHigh returns the High-Level analysis unit (all 19 scenes in sequence).
func GFXHigh() Workload {
	w := Concat(NameGFXHigh, "GFXBench v5", TargetGPU, GFXHighScenes()...)
	return applyDuty(w)
}

// GFXLow returns the Low-Level analysis unit (all 8 tests in sequence).
func GFXLow() Workload {
	w := Concat(NameGFXLow, "GFXBench v5", TargetGPU, GFXLowScenes()...)
	return applyDuty(w)
}

// GFXSpecial returns the Special analysis unit (both render-quality tests).
func GFXSpecial() Workload {
	w := Concat(NameGFXSpecial, "GFXBench v5", TargetGPU, GFXSpecialScenes()...)
	return applyDuty(w)
}

// gfxCheckDurations verifies the scene tables sum to the calibrated
// runtimes; it runs from tests.
func gfxCheckDurations() error {
	sum := func(ss []gfxScene) float64 {
		t := 0.0
		for _, s := range ss {
			t += s.dur
		}
		return t
	}
	if got := sum(highScenes); got != 1400 {
		return fmt.Errorf("workload: high-level scenes sum to %g s, want 1400", got)
	}
	if got := sum(lowScenes); got != 600 {
		return fmt.Errorf("workload: low-level scenes sum to %g s, want 600", got)
	}
	return nil
}
