package xrand

import (
	"math"
	"runtime"
	"testing"
	"time"
)

type zipfCase struct {
	n int
	s float64
}

// zipfProduction lists the (n, s) pairs the simulator draws from: the hot
// region, the branch sites, GPU texture streams and SLC pollution at the
// bundled texture working sets (MB * 16384 lines), and the CPU reuse
// working sets and skews.
func zipfProduction() []zipfCase {
	cs := []zipfCase{{384, 0.8}}
	for _, n := range []int{256, 768, 1536, 4096} {
		cs = append(cs, zipfCase{n, 1.1})
	}
	for _, mb := range []int{160, 240, 270, 320, 400, 480, 540, 600, 640, 660, 720, 780, 840, 880, 920, 960, 1000, 1040, 1120, 1160, 1200, 1280} {
		cs = append(cs, zipfCase{mb * 16384, 0.9}, zipfCase{mb * 16384, 0.4})
	}
	for _, n := range []int{196608, 458752, 1048576} {
		for _, s := range []float64{0.1, 0.95, 1.1, 1.4} {
			cs = append(cs, zipfCase{n, s})
		}
	}
	// The remaining reuse working sets and skews of the bundled workloads
	// (internal/sim's TestZipfGenCoversSimulatorPairs derives them all).
	for _, n := range []int{65536, 98304, 131072, 163840, 229376, 262144, 294912, 327680, 393216, 524288} {
		cs = append(cs, zipfCase{n, 1.4})
	}
	for _, n := range []int{229376, 262144, 294912, 393216, 524288, 1179648, 1310720} {
		cs = append(cs, zipfCase{n, 1.1})
	}
	return append(cs, zipfCase{262144, 0.95})
}

// zipfGrid is zipfProduction plus edge cases: degenerate sizes, the s == 1
// branch, exponents either side of 1 and a steep one.
func zipfGrid() []zipfCase {
	cs := zipfProduction()
	for _, n := range []int{0, 1, 2, 3, 384, 6553600} {
		for _, s := range []float64{0.5, 0.999, 1, 1.001, 2.5} {
			cs = append(cs, zipfCase{n, s})
		}
	}
	return append(cs, zipfCase{1000, 1}, zipfCase{65536, 0.9}, zipfCase{100000, 1.3})
}

// TestZipfGenMatchesZipf pins ZipfGen to Rand.Zipf: identical draws from
// identical generator state, and identical state afterwards, over the
// production (n, s) pairs and the edge cases, for several seeds.
func TestZipfGenMatchesZipf(t *testing.T) {
	for _, c := range zipfGrid() {
		z := NewZipfGen(c.n, c.s)
		for _, seed := range []uint64{42, 7, 1 << 40} {
			a, b := New(seed), New(seed)
			for i := 0; i < 5000; i++ {
				want := a.Zipf(c.n, c.s)
				got := z.Draw(b)
				if want != got {
					t.Fatalf("n=%d s=%g seed=%d draw %d: Zipf=%d ZipfGen=%d", c.n, c.s, seed, i, want, got)
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("n=%d s=%g seed=%d: generator state diverged", c.n, c.s, seed)
			}
		}
	}
}

// TestZipfGenBoundaries drives the table path onto rank boundaries, where
// a wrong guard band would show. For head and tail ranks j it bisects for
// the first 53-bit draw m whose exact rank is >= j, then checks the draws
// m-2 ... m+2 against the exact expression.
func TestZipfGenBoundaries(t *testing.T) {
	const top = 1<<53 - 1
	cs := append(zipfProduction(), zipfCase{2, 2.5}, zipfCase{3, 0.999}, zipfCase{3, 1.001}, zipfCase{6553600, 2.5})
	for _, c := range cs {
		z := NewZipfGen(c.n, c.s)
		ranks := []int{1, 2, 3, 4, 5, 8, 13, 100, c.n / 1000, c.n / 100, c.n / 10, c.n / 3, c.n / 2, c.n - 2, c.n - 1}
		r := New(uint64(c.n))
		for i := 0; i < 64; i++ {
			ranks = append(ranks, 1+r.Intn(c.n-1))
		}
		for _, j := range ranks {
			if j < 1 || j >= c.n || z.rank(top) < j {
				continue
			}
			lo, hi := uint64(0), uint64(top) // rank(lo) < j <= rank(hi)
			if z.rank(lo) >= j {
				continue
			}
			for hi-lo > 1 {
				mid := lo + (hi-lo)/2
				if z.rank(mid) >= j {
					hi = mid
				} else {
					lo = mid
				}
			}
			for m := hi - min(hi, 2); m <= hi+2 && m <= top; m++ {
				if got, _ := z.draw(m); got != z.rank(m) {
					t.Fatalf("n=%d s=%g rank %d boundary m=%d: draw %d, exact %d", c.n, c.s, j, m, got, z.rank(m))
				}
			}
		}
	}
}

// TestZipfGenTableEngages fails if the table path silently stops being
// taken: on every production pair under 1% of draws may fall through.
func TestZipfGenTableEngages(t *testing.T) {
	const draws = 100000
	for _, c := range zipfProduction() {
		z := NewZipfGen(c.n, c.s)
		if z.tab == nil {
			t.Errorf("n=%d s=%g: no guide table", c.n, c.s)
			continue
		}
		r := New(uint64(c.n) ^ math.Float64bits(c.s))
		fallback := 0
		for i := 0; i < draws; i++ {
			if _, table := z.draw(r.Uint64() >> 11); !table {
				fallback++
			}
		}
		if frac := float64(fallback) / draws; frac >= 0.01 {
			t.Errorf("n=%d s=%g: %.2f%% of draws fell through to the exact expression", c.n, c.s, 100*frac)
		}
	}
}

// TestZipfGenReset pins Reset to NewZipfGen: a generator re-targeted
// through production and edge parameters draws exactly as a fresh one.
func TestZipfGenReset(t *testing.T) {
	var z ZipfGen
	for _, c := range zipfGrid() {
		z.Reset(c.n, c.s)
		fresh := NewZipfGen(c.n, c.s)
		a, b := New(3), New(3)
		for i := 0; i < 500; i++ {
			if got, want := z.Draw(a), fresh.Draw(b); got != want {
				t.Fatalf("n=%d s=%g draw %d: reset %d, fresh %d", c.n, c.s, i, got, want)
			}
		}
	}
}

// TestZipfGenSharesTables pins table ownership: generators at one (n, s)
// share one table, re-targeting to an (n, s) a live generator holds
// allocates nothing, and a table no generator holds is dropped.
func TestZipfGenSharesTables(t *testing.T) {
	a, b := NewZipfGen(384, 0.8), NewZipfGen(384, 0.8)
	if a.tab == nil || a.tab != b.tab {
		t.Fatalf("two generators at (384, 0.8) hold tables %p and %p, want one shared table", a.tab, b.tab)
	}
	held := NewZipfGen(1536, 1.1)
	var z ZipfGen
	z.Reset(384, 0.8)
	if allocs := testing.AllocsPerRun(10, func() {
		z.Reset(1536, 1.1)
		z.Reset(384, 0.8)
	}); allocs != 0 {
		t.Fatalf("re-targeting to held parameters allocated %v times", allocs)
	}
	if z.Reset(1536, 1.1); z.tab != held.tab {
		t.Fatal("re-targeting to (1536, 1.1) did not take the held table")
	}
	runtime.KeepAlive(&a)
	runtime.KeepAlive(&b)
	runtime.KeepAlive(&held)

	// A table lives exactly as long as some generator holds it.
	key := zipfKey{12345, math.Float64bits(0.85)}
	func() {
		g := NewZipfGen(12345, 0.85)
		zipfTables.Lock()
		registered := zipfTables.m[key].Value()
		zipfTables.Unlock()
		if g.tab == nil || registered != g.tab {
			t.Fatal("(12345, 0.85) has no registered table")
		}
	}()
	for i := 0; ; i++ {
		runtime.GC()
		zipfTables.Lock()
		_, live := zipfTables.m[key]
		zipfTables.Unlock()
		if !live {
			break
		}
		if i == 100 {
			t.Fatal("the table of (12345, 0.85) outlived its last generator")
		}
		time.Sleep(time.Millisecond)
	}
}

// FuzzZipfGenDraw checks ZipfGen against Rand.Zipf on arbitrary (seed, n,
// s): the same ranks and the same generator state afterwards.
func FuzzZipfGenDraw(f *testing.F) {
	for _, c := range zipfGrid() {
		f.Add(uint64(c.n), c.n, c.s)
	}
	f.Add(uint64(3), -5, 0.9)
	f.Add(uint64(4), 1<<41, 0.9)
	f.Add(uint64(5), 1000, -3.0)
	f.Add(uint64(6), 1000, math.NaN())
	f.Add(uint64(7), 1000, 1e300)
	f.Fuzz(func(t *testing.T, seed uint64, n int, s float64) {
		z := NewZipfGen(n, s)
		a, b := New(seed), New(seed)
		for i := 0; i < 512; i++ {
			if want, got := a.Zipf(n, s), z.Draw(b); want != got {
				t.Fatalf("n=%d s=%g seed=%d draw %d: Zipf=%d ZipfGen=%d", n, s, seed, i, want, got)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d s=%g seed=%d: generator state diverged", n, s, seed)
		}
	})
}

// BenchmarkZipfGenDraw times one draw with the GPU texture stream's
// parameters and with the branch sites'. internal/sim's
// BenchmarkZipfGenDrawRun times draws over one run's tables at once.
func BenchmarkZipfGenDraw(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
		s    float64
	}{{"texture", 6553600, 0.9}, {"branch", 1536, 1.1}} {
		b.Run(c.name, func(b *testing.B) {
			z := NewZipfGen(c.n, c.s)
			r := New(1)
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += z.Draw(r)
			}
			zipfSink = sum
		})
	}
}

// BenchmarkNewZipfGen times building a generator for the texture stream.
func BenchmarkNewZipfGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		zipfGenSink = NewZipfGen(6553600, 0.9)
	}
}

var (
	zipfSink    int
	zipfGenSink ZipfGen
)

// singleRank returns bucket b's recorded rank, if b is single-rank.
func singleRank(tab *zipfTable, b int) (int, bool) {
	if tab.rank == nil {
		return 0, false
	}
	k := tab.rank[b]
	return int(k), k != zipfNoRank
}

// checkSingleRanks checks every single-rank bucket of z against the
// exact expression at its first and last offsets and at 64 interior
// offsets drawn from r.
func checkSingleRanks(t *testing.T, z *ZipfGen, r *Rand) {
	t.Helper()
	for b := range zipfBuckets {
		k, ok := singleRank(z.tab, b)
		if !ok {
			continue
		}
		first := uint64(b) << zipfTailBits
		offs := []uint64{0, zipfTailMask}
		for range 64 {
			offs = append(offs, r.Uint64()&zipfTailMask)
		}
		for _, d := range offs {
			if want := z.rank(first | d); k != want {
				t.Fatalf("n=%d s=%v bucket %d offset %#x: single rank %d, exact %d", z.n, z.s, b, d, k, want)
			}
		}
	}
}

// zipfEdgeCases searches below s0 for up to want exponents s at which a
// rank boundary j falls at the last offset of a bucket that is single-rank
// at s0, with the series there still below j and the exact expression
// already at j. A single-rank test that took the series ends at face
// value would record such a bucket as rank j-1.
func zipfEdgeCases(n int, s0 float64, want int) []zipfCase {
	var found []zipfCase
	z0 := NewZipfGen(n, s0)
	for b := zipfBuckets - 1; b >= 0 && len(found) < want; b-- {
		k, ok := singleRank(z0.tab, b)
		if !ok {
			continue
		}
		last := uint64(b)<<zipfTailBits | zipfTailMask
		j := k + 1
		rankAt := func(s float64) int { e := newZipfExact(n, s); return e.rank(last) }
		// The ranks grow as s falls: bisect the float bits for the
		// crossing into j.
		lo, hi := math.Float64bits(s0-0.05), math.Float64bits(s0)
		if rankAt(math.Float64frombits(lo)) < j || rankAt(s0) >= j {
			continue
		}
		for hi-lo > 1 {
			if mid := lo + (hi-lo)/2; rankAt(math.Float64frombits(mid)) >= j {
				lo = mid
			} else {
				hi = mid
			}
		}
		for bits := lo - 8; bits <= lo+8; bits++ {
			s := math.Float64frombits(bits)
			e := newZipfExact(n, s)
			tab := newZipfTable(&e)
			if tab == nil || tab.bk[b].g0 == 0 {
				continue
			}
			x1, _ := tab.series(&tab.bk[b], 0)
			x2, _ := tab.series(&tab.bk[b], zipfTailMask)
			if int(x1) == j-1 && int(x2) == j-1 && e.rank(last) == j {
				found = append(found, zipfCase{n, s})
				break
			}
		}
	}
	return found
}

// TestZipfGenSingleRankExact checks the single-rank buckets: every one of
// every production pair, and of exponents tuned so that a rank boundary
// sits at a bucket's last offset, just past where the series puts it.
func TestZipfGenSingleRankExact(t *testing.T) {
	// A rank array only where most buckets are single-rank: the hot
	// region's (91%) but not the GPU textures' (13.5% at s = 0.9, none at
	// s = 0.4).
	for _, c := range []struct {
		zipfCase
		array bool
	}{{zipfCase{384, 0.8}, true}, {zipfCase{6553600, 0.9}, false}, {zipfCase{6553600, 0.4}, false}} {
		if z := NewZipfGen(c.n, c.s); (z.tab.rank != nil) != c.array {
			t.Errorf("n=%d s=%v: rank array %v, want %v", c.n, c.s, z.tab.rank != nil, c.array)
		}
	}
	for _, c := range zipfProduction() {
		z := NewZipfGen(c.n, c.s)
		checkSingleRanks(t, &z, New(uint64(c.n)^math.Float64bits(c.s)))
	}
	edges := append(zipfEdgeCases(384, 0.8, 3), zipfEdgeCases(1536, 1.1, 3)...)
	if len(edges) == 0 {
		t.Fatal("no edge case found")
	}
	for _, c := range edges {
		t.Logf("edge case n=%d s=%v", c.n, c.s)
		z := NewZipfGen(c.n, c.s)
		checkSingleRanks(t, &z, New(uint64(c.n)))
	}
}
