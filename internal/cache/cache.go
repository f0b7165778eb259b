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
	sets  int
	nways int
	shift uint // log2(line size)
	mask  uint64

	// ways[set*nways+way] is one way; a set's ways are contiguous, so a
	// lookup reads one run of memory.
	ways []way
	tick uint64

	stats Stats
}

// way is one cache way. tag is the line address plus one, so the zero
// way is invalid; lru is the tick of the last access that touched it.
type way struct {
	tag, lru uint64
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
	if geom.LineBytes < 2 {
		// A 1-byte line would let line+1 wrap to the invalid tag.
		return nil, fmt.Errorf("cache %s: line size %d below 2 bytes", geom.Name, geom.LineBytes)
	}
	sets := geom.Sets()
	c := &Cache{
		sets:  sets,
		nways: geom.Ways,
		ways:  make([]way, sets*geom.Ways),
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
	clear(c.ways)
	c.stats = Stats{}
	c.tick = 0
}

func (c *Cache) setIndex(lineAddr uint64) int {
	if c.mask != 0 {
		return int(lineAddr & c.mask)
	}
	return int(lineAddr % uint64(c.sets))
}

// set returns the ways of the set addr maps to, and addr's tag.
func (c *Cache) set(addr uint64) ([]way, uint64) {
	line := addr >> c.shift
	base := c.setIndex(line) * c.nways
	return c.ways[base : base+c.nways], line + 1
}

// Access looks up addr, filling the line on a miss. It returns true on hit.
//
// The victim is the last invalid way in scan order or, with none invalid,
// the first way holding the smallest LRU stamp. Invalid ways always hold
// stamp 0 (only Flush invalidates, and it zeroes whole ways), and valid
// ways hold distinct stamps of at least 1, so that rule is the last way
// holding the smallest stamp: a minimum the compiler keeps branch-free.
func (c *Cache) Access(addr uint64) bool {
	set, tag := c.set(addr)
	c.tick++
	c.stats.Accesses++
	for i := range set {
		if set[i].tag == tag {
			set[i].lru = c.tick
			return true
		}
	}
	victim, victimLRU := 0, set[0].lru
	for i := 1; i < len(set); i++ {
		if set[i].lru <= victimLRU {
			victim = i
		}
		victimLRU = min(victimLRU, set[i].lru)
	}
	c.stats.Misses++
	set[victim] = way{tag: tag, lru: c.tick}
	return false
}

// Contains reports whether addr is resident without touching LRU state or
// statistics; used by tests and by inclusive-hierarchy checks.
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.set(addr)
	for i := range set {
		if set[i].tag == tag {
			return true
		}
	}
	return false
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
