package cache

import (
	"testing"
	"testing/quick"

	"mobilebench/internal/soc"
	"mobilebench/internal/xrand"
)

func smallGeom() soc.CacheGeometry {
	return soc.CacheGeometry{Name: "test", SizeBytes: 4096, LineBytes: 64, Ways: 2}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	_, err := New(soc.CacheGeometry{Name: "bad", SizeBytes: 100, LineBytes: 48, Ways: 3})
	if err == nil {
		t.Fatal("invalid geometry accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on bad geometry")
		}
	}()
	MustNew(soc.CacheGeometry{})
}

func TestHitAfterMiss(t *testing.T) {
	c := MustNew(smallGeom())
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access to same line missed")
	}
	if !c.Access(0x1038) { // same 64-byte line
		t.Fatal("same-line access missed")
	}
	st := c.Stats()
	if st.Accesses != 3 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 3 accesses / 1 miss", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache: three distinct lines mapping to the same set must evict
	// the least recently used.
	c := MustNew(smallGeom())
	sets := uint64(smallGeom().Sets())
	stride := sets * 64 // same set index, different tags
	a, b, x := uint64(0), stride, 2*stride

	c.Access(a)
	c.Access(b)
	c.Access(a) // a is now most recent
	c.Access(x) // should evict b
	if !c.Contains(a) {
		t.Fatal("most-recently-used line evicted")
	}
	if c.Contains(b) {
		t.Fatal("LRU line survived eviction")
	}
	if !c.Contains(x) {
		t.Fatal("new line not installed")
	}
}

func TestContainsDoesNotTouchState(t *testing.T) {
	c := MustNew(smallGeom())
	c.Access(0x40)
	before := c.Stats()
	c.Contains(0x40)
	c.Contains(0x123456)
	if c.Stats() != before {
		t.Fatal("Contains changed statistics")
	}
}

func TestFlush(t *testing.T) {
	c := MustNew(smallGeom())
	c.Access(0x40)
	c.Flush()
	if c.Contains(0x40) {
		t.Fatal("line survived flush")
	}
	if c.Stats().Accesses != 0 {
		t.Fatal("stats survived flush")
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := MustNew(smallGeom())
	c.Access(0x40)
	c.ResetStats()
	if c.Stats().Accesses != 0 {
		t.Fatal("ResetStats did not clear counters")
	}
	if !c.Access(0x40) {
		t.Fatal("ResetStats evicted contents")
	}
}

func TestMissRatio(t *testing.T) {
	var s Stats
	if s.MissRatio() != 0 {
		t.Fatal("empty stats should have ratio 0")
	}
	s = Stats{Accesses: 10, Misses: 3}
	if s.MissRatio() != 0.3 {
		t.Fatalf("ratio = %g", s.MissRatio())
	}
}

func newTestHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	p := soc.Snapdragon888HDK()
	l3 := MustNew(p.L3)
	slc := MustNew(p.SLC)
	h, err := NewHierarchy(p.Clusters[soc.Big], l3, slc)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyDepth(t *testing.T) {
	h := newTestHierarchy(t)
	if depth := h.Access(0x10000); depth != 5 {
		t.Fatalf("cold access served at depth %d, want 5 (DRAM)", depth)
	}
	if depth := h.Access(0x10000); depth != 1 {
		t.Fatalf("warm access served at depth %d, want 1 (L1)", depth)
	}
	if h.DRAMAccesses != 1 {
		t.Fatalf("DRAM accesses = %d, want 1", h.DRAMAccesses)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h := newTestHierarchy(t)
	h.Access(0x20000)
	// Thrash L1 only: enough distinct lines to evict 0x20000 from L1
	// (64 KB) but not from L2 (1 MB).
	for i := uint64(0); i < 2048; i++ {
		h.Access(0x100000 + i*64)
	}
	if depth := h.Access(0x20000); depth != 2 {
		t.Fatalf("expected L2 hit (depth 2), got depth %d", depth)
	}
}

func TestHierarchyRequiresSharedLevels(t *testing.T) {
	p := soc.Snapdragon888HDK()
	if _, err := NewHierarchy(p.Clusters[soc.Big], nil, nil); err == nil {
		t.Fatal("nil shared levels accepted")
	}
}

func TestHierarchyFlushAndLevels(t *testing.T) {
	h := newTestHierarchy(t)
	h.Access(0x40)
	h.Flush()
	if h.DRAMAccesses != 0 {
		t.Fatal("flush kept DRAM counter")
	}
	levels := h.Levels()
	if len(levels) != 4 {
		t.Fatalf("levels = %d, want 4", len(levels))
	}
}

func TestPatternClamp(t *testing.T) {
	p := AccessPattern{
		WorkingSetBytes:  1,
		SequentialFrac:   2,
		ReuseSkew:        -1,
		StridedFrac:      -0.5,
		HotFrac:          1.5,
		PrefetchCoverage: 3,
	}.Clamp()
	if p.WorkingSetBytes < 4096 {
		t.Error("working set not floored")
	}
	if p.SequentialFrac != 1 || p.StridedFrac != 0 || p.HotFrac != 1 || p.PrefetchCoverage != 1 {
		t.Errorf("fractions not clamped: %+v", p)
	}
	if p.ReuseSkew != 0 {
		t.Error("negative skew not clamped")
	}
	if p.HotBytes == 0 {
		t.Error("hot bytes not defaulted")
	}
}

// TestStreamDeterminism also covers Reset: a generator re-targeted from
// another pattern mid-stream must match a fresh one.
func TestStreamDeterminism(t *testing.T) {
	pat := AccessPattern{WorkingSetBytes: 1 << 20, SequentialFrac: 0.5, HotFrac: 0.5, ReuseSkew: 0.9}
	g1 := NewStreamGen(pat, 1, xrand.New(5))
	g2 := NewStreamGen(pat, 1, xrand.New(5))
	g3 := NewStreamGen(AccessPattern{WorkingSetBytes: 1 << 24, ReuseSkew: 1.4, HotBytes: 4096}, 3, xrand.New(9))
	for i := 0; i < 100; i++ {
		g3.Next()
	}
	g3.Reset(pat, 1, xrand.New(5))
	for i := 0; i < 1000; i++ {
		a1, s1 := g1.Next()
		a2, s2 := g2.Next()
		a3, s3 := g3.Next()
		if a1 != a2 || s1 != s2 || a1 != a3 || s1 != s3 {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestStreamRegionsDisjoint(t *testing.T) {
	pat := AccessPattern{WorkingSetBytes: 1 << 20}
	g1 := NewStreamGen(pat, 1, xrand.New(5))
	g2 := NewStreamGen(pat, 2, xrand.New(5))
	a1, _ := g1.Next()
	a2, _ := g2.Next()
	if a1>>40 == a2>>40 {
		t.Fatal("distinct regions share an address range")
	}
}

func TestHotFracReducesMisses(t *testing.T) {
	p := soc.Snapdragon888HDK()
	run := func(hot float64) uint64 {
		l3 := MustNew(p.L3)
		slc := MustNew(p.SLC)
		h, _ := NewHierarchy(p.Clusters[soc.Big], l3, slc)
		g := NewStreamGen(AccessPattern{
			WorkingSetBytes: 64 << 20,
			HotFrac:         hot,
		}, 1, xrand.New(9))
		total := uint64(0)
		for i := 0; i < 10; i++ {
			m := g.Batch(h, 2000)
			for _, v := range m {
				total += v
			}
		}
		return total
	}
	cold, warm := run(0.1), run(0.9)
	if warm >= cold {
		t.Fatalf("hot fraction did not reduce misses: hot=0.9 %d vs hot=0.1 %d", warm, cold)
	}
}

func TestPrefetchReducesCountedMisses(t *testing.T) {
	p := soc.Snapdragon888HDK()
	run := func(coverage float64) uint64 {
		l3 := MustNew(p.L3)
		slc := MustNew(p.SLC)
		h, _ := NewHierarchy(p.Clusters[soc.Big], l3, slc)
		g := NewStreamGen(AccessPattern{
			WorkingSetBytes:  64 << 20,
			SequentialFrac:   1,
			PrefetchCoverage: coverage,
		}, 1, xrand.New(9))
		total := uint64(0)
		m := g.Batch(h, 5000)
		for _, v := range m {
			total += v
		}
		return total
	}
	none, full := run(0), run(1)
	if full >= none {
		t.Fatalf("prefetch coverage did not hide misses: full=%d none=%d", full, none)
	}
	if full != 0 {
		t.Fatalf("full coverage should hide every sequential miss, got %d", full)
	}
}

func TestBatchMissesMonotoneByLevel(t *testing.T) {
	// Misses at deeper levels can never exceed misses at shallower levels.
	p := soc.Snapdragon888HDK()
	l3 := MustNew(p.L3)
	slc := MustNew(p.SLC)
	h, _ := NewHierarchy(p.Clusters[soc.Little], l3, slc)
	g := NewStreamGen(AccessPattern{WorkingSetBytes: 32 << 20, ReuseSkew: 0.5}, 3, xrand.New(2))
	m := g.Batch(h, 5000)
	for i := 1; i < len(m); i++ {
		if m[i] > m[i-1] {
			t.Fatalf("level %d misses (%d) exceed level %d misses (%d)", i+1, m[i], i, m[i-1])
		}
	}
}

func TestPollute(t *testing.T) {
	p := soc.Snapdragon888HDK()
	slc := MustNew(p.SLC)
	g := NewStreamGen(AccessPattern{WorkingSetBytes: 16 << 20}, 9, xrand.New(4))
	g.Pollute(slc, 1000)
	if slc.Stats().Accesses != 1000 {
		t.Fatalf("pollute issued %d accesses, want 1000", slc.Stats().Accesses)
	}
}

func TestSetWorkingSet(t *testing.T) {
	g := NewStreamGen(AccessPattern{WorkingSetBytes: 1 << 20}, 1, xrand.New(1))
	g.SetWorkingSet(2 << 20)
	if g.Pattern().WorkingSetBytes != 2<<20 {
		t.Fatal("SetWorkingSet did not update the pattern")
	}
	g.SetWorkingSet(1) // floors
	if g.Pattern().WorkingSetBytes < 4096 {
		t.Fatal("SetWorkingSet did not floor tiny sizes")
	}
}

func TestQuickMissRatioBounds(t *testing.T) {
	p := soc.Snapdragon888HDK()
	f := func(seed uint64, hotRaw, seqRaw uint8) bool {
		l3 := MustNew(p.L3)
		slc := MustNew(p.SLC)
		h, _ := NewHierarchy(p.Clusters[soc.Mid], l3, slc)
		g := NewStreamGen(AccessPattern{
			WorkingSetBytes: 8 << 20,
			HotFrac:         float64(hotRaw) / 255,
			SequentialFrac:  float64(seqRaw) / 255,
		}, 1, xrand.New(seed))
		m := g.Batch(h, 500)
		for _, v := range m {
			if v > 500 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
