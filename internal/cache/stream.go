package cache

import (
	"mobilebench/internal/xrand"
)

// AccessPattern parameterizes the synthetic memory reference stream of a
// workload phase. It is a compact statistical stand-in for an address trace:
// a mix of sequential (streaming) accesses and reuse accesses drawn from a
// skewed distribution over the working set.
type AccessPattern struct {
	// WorkingSetBytes is the size of the region the phase actively touches.
	WorkingSetBytes uint64
	// SequentialFrac is the fraction of accesses that stream linearly
	// (high spatial locality). The rest are reuse accesses over the
	// working set.
	SequentialFrac float64
	// ReuseSkew is the Zipf exponent of the reuse distribution; larger
	// values concentrate accesses on a hot subset (high temporal
	// locality). 0 means uniform.
	ReuseSkew float64
	// StridedFrac of the non-sequential accesses use a large power-of-two
	// stride, defeating spatial locality (matrix-column walks, hash
	// probes).
	StridedFrac float64
	// HotFrac is the fraction of accesses that touch a small hot region
	// (stack frames, loop-local buffers, hot objects). Real programs
	// direct the large majority of references at a working set that fits
	// in L1; omitting this is the classic mistake that makes synthetic
	// streams miss an order of magnitude too often.
	HotFrac float64
	// HotBytes is the hot region size (default 24 KB when zero).
	HotBytes uint64
	// PrefetchCoverage is the fraction of sequential-stream misses hidden
	// by the hardware next-line/stride prefetcher. Prefetched lines still
	// occupy (and pollute) the caches; they just do not stall the core.
	PrefetchCoverage float64
}

// Clamp returns the pattern with all fields forced into valid ranges.
func (p AccessPattern) Clamp() AccessPattern {
	if p.WorkingSetBytes < 4096 {
		p.WorkingSetBytes = 4096
	}
	clamp01 := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	p.SequentialFrac = clamp01(p.SequentialFrac)
	p.StridedFrac = clamp01(p.StridedFrac)
	p.HotFrac = clamp01(p.HotFrac)
	p.PrefetchCoverage = clamp01(p.PrefetchCoverage)
	if p.ReuseSkew < 0 {
		p.ReuseSkew = 0
	}
	if p.HotBytes == 0 {
		p.HotBytes = 24 * 1024
	}
	if p.HotBytes < 1024 {
		p.HotBytes = 1024
	}
	return p
}

// StreamGen draws addresses following an AccessPattern. The generator is
// stateful so sequential runs continue across batches, as a real program's
// streams do across profiler samples.
type StreamGen struct {
	pat    AccessPattern
	rng    *xrand.Rand
	cursor uint64 // sequential stream position
	base   uint64 // region base address (distinct per generator)
	// hotLines caches the number of distinct lines in the working set.
	lines uint64
	// Zipf samplers for the hot-region and reuse distributions:
	// bit-identical to calling rng.Zipf per access, but guide-table
	// driven, so all but a few draws skip math.Pow.
	hotZipf   xrand.ZipfGen
	reuseZipf xrand.ZipfGen
	// The pattern's fractions as precomputed Bool draws.
	hot, seq, strided, prefetch xrand.Threshold
}

// NewStreamGen builds a generator for the pattern. Each generator gets a
// distinct address region so that two cores' streams do not accidentally
// share lines unless the workload says so.
func NewStreamGen(pat AccessPattern, region uint64, rng *xrand.Rand) *StreamGen {
	g := new(StreamGen)
	g.Reset(pat, region, rng)
	return g
}

// Reset re-targets g: afterwards it generates exactly what
// NewStreamGen(pat, region, rng) would, reusing its Zipf tables.
func (g *StreamGen) Reset(pat AccessPattern, region uint64, rng *xrand.Rand) {
	pat = pat.Clamp()
	g.pat, g.rng, g.cursor = pat, rng, 0
	g.base = region << 40 // 1 TB-aligned region per generator
	g.lines = pat.WorkingSetBytes / 64
	g.hotZipf.Reset(int(pat.HotBytes/64), 0.8)
	g.reuseZipf.Reset(int(g.lines), pat.ReuseSkew)
	g.hot = xrand.NewThreshold(pat.HotFrac)
	g.seq = xrand.NewThreshold(pat.SequentialFrac)
	g.strided = xrand.NewThreshold(pat.StridedFrac)
	g.prefetch = xrand.NewThreshold(pat.PrefetchCoverage)
}

// Pattern returns the generator's pattern.
func (g *StreamGen) Pattern() AccessPattern { return g.pat }

// Next returns the next address in the synthetic stream and whether it
// belongs to a sequential stream (and is therefore a prefetcher target).
func (g *StreamGen) Next() (addr uint64, sequential bool) {
	if g.hot.Draw(g.rng) {
		// Hot-region access: skewed references within a tiny buffer kept
		// in a separate sub-region so it stays resident.
		line := uint64(g.hotZipf.Draw(g.rng))
		return g.base + (1 << 30) + line*64 + g.rng.Uint64n(64)&^7, false
	}
	if g.seq.Draw(g.rng) {
		// Streaming access: walk forward one element (8 bytes), wrapping
		// inside the working set. The cursor stays below the working set
		// (at least 4 KB), so one subtraction is the modulo.
		if g.cursor += 8; g.cursor >= g.pat.WorkingSetBytes {
			g.cursor -= g.pat.WorkingSetBytes
		}
		return g.base + g.cursor, true
	}
	var line uint64
	if g.pat.ReuseSkew > 0 {
		line = uint64(g.reuseZipf.Draw(g.rng))
	} else {
		line = g.rng.Uint64n(g.lines)
	}
	if g.strided.Draw(g.rng) {
		// Large-stride access: spread over the set index bits so that
		// consecutive strided accesses conflict in the same ways.
		line = (line * 1024) % g.lines
	}
	return g.base + line*64 + g.rng.Uint64n(64)&^7, false
}

// Batch drives n accesses through the hierarchy and returns the per-level
// demand-miss counts observed for this batch ([L1 misses, L2 misses,
// L3 misses, SLC misses]). Misses on sequential accesses covered by the
// modelled prefetcher install their lines but are not counted — they do not
// stall the core.
func (g *StreamGen) Batch(h *Hierarchy, n int) [4]uint64 {
	var misses [4]uint64
	for i := 0; i < n; i++ {
		addr, seq := g.Next()
		depth := h.Access(addr)
		if seq && g.prefetch.Draw(g.rng) {
			continue
		}
		// depth d means levels 1..d-1 missed.
		for l := 1; l < depth && l <= 4; l++ {
			misses[l-1]++
		}
	}
	return misses
}

// Pollute streams n accesses through a single shared cache, modelling a
// non-CPU agent (the GPU) displacing lines; outcomes are not counted.
func (g *StreamGen) Pollute(c *Cache, n int) {
	for i := 0; i < n; i++ {
		addr, _ := g.Next()
		c.Access(addr)
	}
}
