package cache

import (
	"testing"

	"mobilebench/internal/soc"
	"mobilebench/internal/xrand"
)

// refCache is the set-associative LRU cache as it stood with three
// parallel slices (tags, valid bits, LRU stamps). It is the reference the
// packed-way Cache must reproduce access for access.
type refCache struct {
	sets, ways int
	shift      uint
	mask       uint64
	tags       []uint64
	valid      []bool
	lru        []uint64
	tick       uint64
	stats      Stats
}

func newRefCache(geom soc.CacheGeometry) *refCache {
	sets := geom.Sets()
	c := &refCache{
		sets:  sets,
		ways:  geom.Ways,
		tags:  make([]uint64, sets*geom.Ways),
		valid: make([]bool, sets*geom.Ways),
		lru:   make([]uint64, sets*geom.Ways),
	}
	for ls := geom.LineBytes; ls > 1; ls >>= 1 {
		c.shift++
	}
	c.mask = uint64(sets - 1)
	if sets&(sets-1) != 0 {
		c.mask = 0
	}
	return c
}

func (c *refCache) setIndex(line uint64) int {
	if c.mask != 0 {
		return int(line & c.mask)
	}
	return int(line % uint64(c.sets))
}

func (c *refCache) flush() {
	for i := range c.valid {
		c.valid[i] = false
	}
	c.stats = Stats{}
	c.tick = 0
}

func (c *refCache) access(addr uint64) bool {
	line := addr >> c.shift
	base := c.setIndex(line) * c.ways
	c.tick++
	c.stats.Accesses++
	victim, victimLRU := base, c.lru[base]
	for w := 0; w < c.ways; w++ {
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

func (c *refCache) contains(addr uint64) bool {
	line := addr >> c.shift
	base := c.setIndex(line) * c.ways
	for w := 0; w < c.ways; w++ {
		if i := base + w; c.valid[i] && c.tags[i] == line {
			return true
		}
	}
	return false
}

// refGeometries is every cache of every bundled SoC plus two geometries
// with non-power-of-two set counts, which index by modulo.
func refGeometries() []soc.CacheGeometry {
	var gs []soc.CacheGeometry
	for _, p := range []*soc.Platform{soc.Snapdragon888HDK(), soc.Midrange750G()} {
		for _, cl := range p.Clusters {
			if cl.NumCores > 0 {
				gs = append(gs, cl.L1I, cl.L1D, cl.L2)
			}
		}
		gs = append(gs, p.L3, p.SLC)
	}
	return append(gs,
		soc.CacheGeometry{Name: "48-set", SizeBytes: 48 * 8 * 64, LineBytes: 64, Ways: 8},
		soc.CacheGeometry{Name: "12-set", SizeBytes: 12 * 3 * 32, LineBytes: 32, Ways: 3})
}

// TestCacheMatchesReference drives random address streams through Cache
// and refCache over every geometry, with Flush, ResetStats and Contains
// calls mid-stream. After every access the hit or miss, the whole touched
// set (which way was filled, every tag, valid bit and LRU stamp) and the
// statistics must agree.
func TestCacheMatchesReference(t *testing.T) {
	for gi, geom := range refGeometries() {
		c, ref := MustNew(geom), newRefCache(geom)
		rng := xrand.New(uint64(gi) + 1)
		lines := uint64(geom.SizeBytes / geom.LineBytes)
		// A pool twice the capacity keeps both hits and evictions common;
		// a sliver of far addresses exercises the high tag bits.
		pool := 2 * lines
		n := int(4 * lines)
		if n < 20000 {
			n = 20000
		}
		for i := 0; i < n; i++ {
			addr := rng.Uint64n(pool) * uint64(geom.LineBytes)
			if rng.Bool(0.01) {
				addr = rng.Uint64() >> 1
			}
			addr += rng.Uint64n(uint64(geom.LineBytes))
			switch x := rng.Uint64n(100000); {
			case x < 3:
				c.Flush()
				ref.flush()
			case x < 50:
				c.ResetStats()
				ref.stats = Stats{}
			case x < 5000:
				if got, want := c.Contains(addr), ref.contains(addr); got != want {
					t.Fatalf("%s access %d: Contains(%#x) = %v, reference %v", geom.Name, i, addr, got, want)
				}
			}
			if got, want := c.Access(addr), ref.access(addr); got != want {
				t.Fatalf("%s access %d: Access(%#x) hit = %v, reference %v", geom.Name, i, addr, got, want)
			}
			set, _ := c.set(addr)
			base := ref.setIndex(addr>>ref.shift) * ref.ways
			for w := range set {
				j := base + w
				var tag uint64
				if ref.valid[j] {
					tag = ref.tags[j] + 1
				}
				if set[w].tag != tag || (ref.valid[j] && set[w].lru != ref.lru[j]) {
					t.Fatalf("%s access %d: way %d = %+v, reference valid=%v tag=%#x lru=%d",
						geom.Name, i, w, set[w], ref.valid[j], ref.tags[j], ref.lru[j])
				}
			}
			if c.Stats() != ref.stats {
				t.Fatalf("%s access %d: stats %+v, reference %+v", geom.Name, i, c.Stats(), ref.stats)
			}
		}
	}
}

// TestVictimRule pins the replacement order on one 4-way set: invalid ways
// fill last-first, and with none invalid the first way holding the
// smallest stamp goes.
func TestVictimRule(t *testing.T) {
	geom := soc.CacheGeometry{Name: "one set", SizeBytes: 4 * 64, LineBytes: 64, Ways: 4}
	c := MustNew(geom)
	fill := func(line uint64) int {
		c.Access(line * 64)
		set, tag := c.set(line * 64)
		for w := range set {
			if set[w].tag == tag {
				return w
			}
		}
		t.Fatalf("line %d not resident after access", line)
		return -1
	}
	for i, want := range []int{3, 2, 1, 0} {
		if got := fill(uint64(10 + i)); got != want {
			t.Fatalf("cold fill %d went to way %d, want %d (last invalid way)", i, got, want)
		}
	}
	// Lines 10..13 sit in ways 3..0 with stamps 1..4: way 3 is oldest.
	if got := fill(20); got != 3 {
		t.Fatalf("first eviction took way %d, want 3 (smallest stamp)", got)
	}
}
