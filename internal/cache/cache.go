// Package cache implements set-associative cache models and a multi-level
// hierarchy used by the CPU performance model.
//
// Simulating every one of the billions of dynamic memory accesses a
// benchmark performs would be prohibitively slow, so the simulator drives
// the caches with a *sampled* synthetic access stream: each simulation tick
// it draws a few thousand addresses from the workload's working-set
// distribution, runs them through real set-associative LRU caches, and
// scales the observed miss ratios to misses-per-kilo-instruction. This keeps
// the microarchitectural mechanisms (sets, ways, eviction, inclusion of
// multiple levels) real while staying fast.
package cache

import (
	"fmt"

	"mobilebench/internal/soc"
)

// Cache is a set-associative cache with LRU replacement.
type Cache struct {
	geom  soc.CacheGeometry
	sets  int
	shift uint // log2(line size)
	mask  uint64

	// tags[set*ways+way] holds the line tag; lru holds recency counters.
	tags  []uint64
	valid []bool
	lru   []uint64
	tick  uint64

	stats Stats
}

// Stats accumulates access outcomes.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRatio returns misses/accesses, or 0 when there were no accesses.
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// New constructs a cache from its geometry.
func New(geom soc.CacheGeometry) (*Cache, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	sets := geom.Sets()
	c := &Cache{
		geom:  geom,
		sets:  sets,
		tags:  make([]uint64, sets*geom.Ways),
		valid: make([]bool, sets*geom.Ways),
		lru:   make([]uint64, sets*geom.Ways),
	}
	for ls := geom.LineBytes; ls > 1; ls >>= 1 {
		c.shift++
	}
	c.mask = uint64(sets - 1)
	if sets&(sets-1) != 0 {
		// Non-power-of-two set counts use modulo indexing.
		c.mask = 0
	}
	return c, nil
}

// MustNew is New that panics on error; for statically correct geometries.
func MustNew(geom soc.CacheGeometry) *Cache {
	c, err := New(geom)
	if err != nil {
		panic(err)
	}
	return c
}

// Stats returns accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears accumulated statistics but keeps cache contents, so
// per-interval miss ratios can be measured on a warm cache.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Flush invalidates all lines and clears statistics.
func (c *Cache) Flush() {
	for i := range c.valid {
		c.valid[i] = false
	}
	c.stats = Stats{}
	c.tick = 0
}

func (c *Cache) setIndex(lineAddr uint64) int {
	if c.mask != 0 {
		return int(lineAddr & c.mask)
	}
	return int(lineAddr % uint64(c.sets))
}

// Access looks up addr, filling the line on a miss. It returns true on hit.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.shift
	set := c.setIndex(line)
	base := set * c.geom.Ways
	c.tick++
	c.stats.Accesses++

	victim, victimLRU := base, c.lru[base]
	for w := 0; w < c.geom.Ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == line {
			c.lru[i] = c.tick
			return true
		}
		if !c.valid[i] {
			victim, victimLRU = i, 0
		} else if c.lru[i] < victimLRU {
			victim, victimLRU = i, c.lru[i]
		}
	}
	c.stats.Misses++
	c.tags[victim] = line
	c.valid[victim] = true
	c.lru[victim] = c.tick
	return false
}

// Contains reports whether addr is resident without touching LRU state or
// statistics; used by tests and by inclusive-hierarchy checks.
func (c *Cache) Contains(addr uint64) bool {
	line := addr >> c.shift
	base := c.setIndex(line) * c.geom.Ways
	for w := 0; w < c.geom.Ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == line {
			return true
		}
	}
	return false
}

// LevelResult summarizes one level's behaviour for an access batch.
type LevelResult struct {
	Name     string
	Accesses uint64
	Misses   uint64
}

// Hierarchy is a CPU-side cache hierarchy: private L1D and L2, shared L3 and
// system-level cache (SLC). Instruction-side behaviour is modelled
// separately by the performance model because instruction working sets of
// the studied workloads are small relative to L1I.
type Hierarchy struct {
	L1D *Cache
	L2  *Cache
	L3  *Cache // shared; may be aliased between hierarchies
	SLC *Cache // shared SoC-wide cache

	// DRAMAccesses counts accesses that missed every level.
	DRAMAccesses uint64
}

// NewHierarchy builds a hierarchy with private L1/L2 from the cluster
// geometry and the given shared L3/SLC instances.
func NewHierarchy(cl soc.CPUCluster, l3, slc *Cache) (*Hierarchy, error) {
	l1, err := New(cl.L1D)
	if err != nil {
		return nil, err
	}
	l2, err := New(cl.L2)
	if err != nil {
		return nil, err
	}
	if l3 == nil || slc == nil {
		return nil, fmt.Errorf("cache: shared levels must be non-nil")
	}
	return &Hierarchy{L1D: l1, L2: l2, L3: l3, SLC: slc}, nil
}

// Access sends addr down the hierarchy and returns the deepest level that
// had to be consulted: 1 = L1 hit, 2 = L2 hit, 3 = L3 hit, 4 = SLC hit,
// 5 = DRAM.
func (h *Hierarchy) Access(addr uint64) int {
	if h.L1D.Access(addr) {
		return 1
	}
	if h.L2.Access(addr) {
		return 2
	}
	if h.L3.Access(addr) {
		return 3
	}
	if h.SLC.Access(addr) {
		return 4
	}
	h.DRAMAccesses++
	return 5
}

// Flush clears every private level and the DRAM counter (shared levels are
// left to their owner).
func (h *Hierarchy) Flush() {
	h.L1D.Flush()
	h.L2.Flush()
	h.DRAMAccesses = 0
}

// ResetStats clears statistics on the private levels.
func (h *Hierarchy) ResetStats() {
	h.L1D.ResetStats()
	h.L2.ResetStats()
	h.DRAMAccesses = 0
}

// Levels returns per-level stats for the private levels plus the shared
// levels (the shared entries aggregate all users of those caches).
func (h *Hierarchy) Levels() []LevelResult {
	out := []LevelResult{
		{Name: h.L1D.geom.Name, Accesses: h.L1D.stats.Accesses, Misses: h.L1D.stats.Misses},
		{Name: h.L2.geom.Name, Accesses: h.L2.stats.Accesses, Misses: h.L2.stats.Misses},
		{Name: h.L3.geom.Name, Accesses: h.L3.stats.Accesses, Misses: h.L3.stats.Misses},
		{Name: h.SLC.geom.Name, Accesses: h.SLC.stats.Accesses, Misses: h.SLC.stats.Misses},
	}
	return out
}
