package xrand

import (
	"math"
	"testing"
)

type zipfCase struct {
	n int
	s float64
}

// zipfProduction lists the (n, s) pairs the simulator draws from: the hot
// region, the branch sites, GPU texture streams and SLC pollution at the
// bundled texture working sets (MB * 16384 lines), and the CPU reuse skews.
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
	return cs
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
// through production and edge parameters draws exactly as a fresh one,
// keeps its table for unchanged parameters and reuses its memory
// otherwise.
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
	z.Reset(384, 0.8)
	if allocs := testing.AllocsPerRun(10, func() {
		z.Reset(1536, 1.1)
		z.Reset(384, 0.8)
	}); allocs != 0 {
		t.Fatalf("re-targeting a tabled generator allocated %v times", allocs)
	}
	z.tab[0].g0 = -7 // a marker only a rebuild would overwrite
	if z.Reset(384, 0.8); z.tab[0].g0 != -7 {
		t.Fatal("Reset with unchanged parameters rebuilt the table")
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
// parameters and with the branch sites'.
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
