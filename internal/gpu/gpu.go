// Package gpu models an Adreno-class mobile GPU: a shader array fed by a
// command processor, a texture cache, a DVFS governor and a memory bus.
//
// The model is frame-oriented. A workload phase describes a scene (shader
// work per pixel, texture traffic per frame, resolution, graphics API,
// on-/off-screen target); the model computes the achievable frame rate,
// shader occupancy, bus traffic and load. Two effects the paper documents
// fall out of the mechanism rather than being painted on:
//
//   - OpenGL scenes impose higher GPU load than Vulkan ones because the
//     driver overhead per draw call is larger, so the same frame costs more
//     shader work (the paper measures +9.26% for GFXBench).
//   - Off-screen rendering is not vsync-capped, so the GPU runs as many
//     frames as it can and load rises (the paper measures +14.5% for
//     high-level and +62.85% for low-level tests).
package gpu

import (
	"mobilebench/internal/cache"
	"mobilebench/internal/soc"
	"mobilebench/internal/xrand"
)

// API identifies the graphics API a scene uses.
type API int

const (
	// APINone means the phase does no rendering.
	APINone API = iota
	// OpenGL is OpenGL ES.
	OpenGL
	// Vulkan is the lower-overhead explicit API.
	Vulkan
	// Compute marks GPGPU work (OpenCL/Vulkan compute).
	Compute
)

// String returns the API name.
func (a API) String() string {
	switch a {
	case APINone:
		return "none"
	case OpenGL:
		return "OpenGL"
	case Vulkan:
		return "Vulkan"
	case Compute:
		return "Compute"
	default:
		return "API(?)"
	}
}

// overheadFactor is the extra shader+driver work per frame relative to
// Vulkan. Calibrated so that a mix of GFXBench scenes reproduces the
// paper's +9.26% OpenGL GPU-load delta.
func (a API) overheadFactor() float64 {
	switch a {
	case OpenGL:
		return 1.18
	case Vulkan:
		return 1.0
	case Compute:
		return 0.97
	default:
		return 1.0
	}
}

// Scene describes the rendering demand of a workload phase.
type Scene struct {
	API API
	// Width, Height is the render-target resolution.
	Width, Height int
	// WorkPerPixel is shader ALU work units per pixel per frame; a proxy
	// for scene complexity (geometry, lighting, post-processing).
	WorkPerPixel float64
	// TextureBytesPerFrame is texture traffic sampled per frame.
	TextureBytesPerFrame float64
	// FramebufferFactor scales write-back traffic (multi-pass scenes >1).
	FramebufferFactor float64
	// Offscreen disables the vsync cap.
	Offscreen bool
	// TargetFPS caps on-screen rendering (0 means display refresh).
	TargetFPS float64
	// DrawCallsPerFrame bounds CPU-side submission; heavy scenes with many
	// draw calls can be CPU-limited.
	DrawCallsPerFrame float64
	// TextureWorkingSetMB is the active texture footprint (drives the
	// texture cache model and memory residency).
	TextureWorkingSetMB float64
}

// Pixels returns the render-target pixel count.
func (s Scene) Pixels() float64 { return float64(s.Width * s.Height) }

// Result is the GPU state over one simulation tick.
type Result struct {
	// Load is frequency x utilization, normalized to max frequency
	// (the paper's "GPU Load" metric, 0..1).
	Load float64
	// Util is busy fraction at the chosen frequency.
	Util float64
	// FreqHz is the DVFS-selected frequency.
	FreqHz float64
	// ShadersBusy is the fraction of time all shader cores are busy.
	ShadersBusy float64
	// BusBusy is the fraction of time the GPU-to-memory bus is busy.
	BusBusy float64
	// FPS is the achieved frame rate.
	FPS float64
	// TexMissRatio is the texture-cache miss ratio for the tick.
	TexMissRatio float64
	// BytesMoved is total bus traffic this tick.
	BytesMoved float64
}

// Model is the GPU simulator.
type Model struct {
	hw     soc.GPU
	disp   soc.Display
	freqHz float64
	tex    *cache.Cache
	texGen *cache.StreamGen
	// texLive reports whether texGen has been re-targeted since the last
	// Reset. A stale texGen still holds its Zipf tables, so a run at the
	// same texture working sets takes them instead of rebuilding them.
	texLive bool
	rng     *xrand.Rand
}

// NewModel creates a GPU model for the platform.
func NewModel(hw soc.GPU, disp soc.Display, rng *xrand.Rand) *Model {
	texGeom := soc.CacheGeometry{
		Name: "GPU L1 Tex", SizeBytes: hw.L1TexKB * 1024, LineBytes: 64, Ways: 4, LatencyCycles: 4,
	}
	m := &Model{
		hw:     hw,
		disp:   disp,
		freqHz: hw.MinFreqHz,
		tex:    cache.MustNew(texGeom),
		texGen: new(cache.StreamGen),
		rng:    rng,
	}
	return m
}

// Reset returns the model to its initial state.
func (m *Model) Reset() {
	m.freqHz = m.hw.MinFreqHz
	m.tex.Flush()
	m.texLive = false
}

// ResetSeed is Reset plus re-seeding the texture-stream RNG. A flushed
// texture cache is access-for-access identical to a fresh one and the
// texture stream generator is rebuilt lazily from the new rng, so a pooled
// model reset this way behaves bit-identically to NewModel(hw, disp, rng).
func (m *Model) ResetSeed(rng *xrand.Rand) {
	m.Reset()
	m.rng = rng
}

// peakWorkPerSec is shader throughput at freq.
func (m *Model) peakWorkPerSec(freqHz float64) float64 {
	return float64(m.hw.NumShaders) * freqHz
}

// Step advances the GPU by dt seconds rendering scene, returning counters.
// A zero-valued Scene (API == APINone) idles the GPU.
func (m *Model) Step(scene Scene, dt float64) Result {
	if scene.API == APINone || scene.WorkPerPixel <= 0 || scene.Pixels() == 0 {
		// Idle: decay frequency toward minimum.
		m.freqHz = m.freqHz - 0.5*(m.freqHz-m.hw.MinFreqHz)
		return Result{FreqHz: m.freqHz}
	}

	workPerFrame := scene.Pixels() * scene.WorkPerPixel * scene.API.overheadFactor()

	// Frame-rate bounds: shader throughput at max frequency, vsync (unless
	// off-screen), and CPU-side draw-call submission.
	fpsShader := m.peakWorkPerSec(m.hw.MaxFreqHz) / workPerFrame
	fps := fpsShader
	if !scene.Offscreen {
		cap := scene.TargetFPS
		if cap <= 0 {
			cap = m.disp.RefreshHz
		}
		if fps > cap {
			fps = cap
		}
	}
	if scene.DrawCallsPerFrame > 0 {
		// Driver submission path sustains ~1.5M draw calls/s on Vulkan,
		// ~0.6M on OpenGL.
		rate := 1.5e6
		if scene.API == OpenGL {
			rate = 0.6e6
		}
		if sub := rate / scene.DrawCallsPerFrame; fps > sub {
			fps = sub
		}
	}

	// Utilization demand at max frequency, then DVFS picks a frequency
	// with schedutil-like headroom.
	demand := fps * workPerFrame / m.peakWorkPerSec(m.hw.MaxFreqHz)
	if demand > 1 {
		demand = 1
	}
	target := 1.25 * demand * m.hw.MaxFreqHz
	if target < m.hw.MinFreqHz {
		target = m.hw.MinFreqHz
	}
	if target > m.hw.MaxFreqHz {
		target = m.hw.MaxFreqHz
	}
	if target < m.freqHz {
		target = m.freqHz - 0.4*(m.freqHz-target)
	}
	m.freqHz = target

	util := fps * workPerFrame / m.peakWorkPerSec(m.freqHz)
	if util > 1 {
		util = 1
	}
	load := util * m.freqHz / m.hw.MaxFreqHz

	// Texture cache: sample accesses over the texture working set.
	texMiss := 0.0
	if scene.TextureWorkingSetMB > 0 {
		ws := uint64(scene.TextureWorkingSetMB * 1024 * 1024)
		if !m.texLive || m.texGen.Pattern().WorkingSetBytes != ws {
			m.texGen.Reset(cache.AccessPattern{
				WorkingSetBytes: ws,
				SequentialFrac:  0.35,
				ReuseSkew:       0.9,
			}, 7, m.rng.Split(0x9e37))
			m.texLive = true
		}
		const sample = 2048
		m.tex.ResetStats()
		for i := 0; i < sample; i++ {
			addr, _ := m.texGen.Next()
			m.tex.Access(addr)
		}
		texMiss = m.tex.Stats().MissRatio()
	}

	// Bus traffic: texture fetches that miss the texture cache plus
	// framebuffer write-back.
	fbFactor := scene.FramebufferFactor
	if fbFactor <= 0 {
		fbFactor = 1
	}
	bytesPerFrame := scene.TextureBytesPerFrame*texMiss + scene.Pixels()*4*fbFactor
	bytesPerSec := bytesPerFrame * fps
	busBusy := bytesPerSec / m.hw.MaxBusBandwidth()
	if busBusy > 1 {
		busBusy = 1
	}

	// Shader occupancy tracks utilization but saturates below 1: even at
	// full tilt some time goes to fixed-function stages.
	shadersBusy := util * 0.93
	if scene.API == Compute {
		shadersBusy = util * 0.97 // compute bypasses most fixed-function HW
	}

	return Result{
		Load:         load,
		Util:         util,
		FreqHz:       m.freqHz,
		ShadersBusy:  shadersBusy,
		BusBusy:      busBusy,
		FPS:          fps,
		TexMissRatio: texMiss,
		BytesMoved:   bytesPerSec * dt,
	}
}
