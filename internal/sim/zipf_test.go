package sim

import (
	"cmp"
	"slices"
	"testing"

	"mobilebench/internal/cache"
	"mobilebench/internal/soc"
	"mobilebench/internal/workload"
	"mobilebench/internal/xrand"
)

// zipfPair is one (n, s) a Zipf sampler of the simulator draws from.
type zipfPair struct {
	n int
	s float64
}

// drawnZipfPairs derives every (n, s) the simulator's Zipf samplers draw
// from when running ws on plat: per CPU phase, each present cluster's hot
// region and reuse stream (cache.StreamGen) and its branch sites
// (branch.Stream); per GPU scene with textures, the GPU model's texture
// stream and the SLC pollution stream (tickState.gpuSLC).
func drawnZipfPairs(plat *soc.Platform, ws []workload.Workload) []zipfPair {
	seen := map[zipfPair]bool{}
	stream := func(p cache.AccessPattern) {
		p = p.Clamp()
		if p.HotFrac > 0 {
			seen[zipfPair{int(p.HotBytes / 64), 0.8}] = true
		}
		if p.ReuseSkew > 0 {
			seen[zipfPair{int(p.WorkingSetBytes / 64), p.ReuseSkew}] = true
		}
	}
	for _, w := range ws {
		for _, ph := range w.Phases {
			for _, k := range soc.Clusters() {
				if plat.Clusters[k].NumCores == 0 {
					continue
				}
				if ph.CPU.Mix.LoadStoreFrac > 0 {
					stream(ph.CPU.Access)
				}
				if ph.CPU.Mix.BranchFrac > 0 {
					seen[zipfPair{ph.CPU.Branches.Clamp().StaticBranches, 1.1}] = true
				}
			}
			if mb := ph.GPU.TextureWorkingSetMB; mb > 0 {
				ws := uint64(mb * 1024 * 1024)
				stream(cache.AccessPattern{WorkingSetBytes: ws, SequentialFrac: 0.35, ReuseSkew: 0.9})
				stream(cache.AccessPattern{WorkingSetBytes: ws, SequentialFrac: 0.6, ReuseSkew: 0.4})
			}
		}
	}
	pairs := make([]zipfPair, 0, len(seen))
	for p := range seen {
		if p.n > 1 {
			pairs = append(pairs, p)
		}
	}
	slices.SortFunc(pairs, func(a, b zipfPair) int {
		return cmp.Or(cmp.Compare(a.n, b.n), cmp.Compare(a.s, b.s))
	})
	return pairs
}

// TestZipfGenCoversSimulatorPairs walks every analysis unit and executable
// on both bundled platforms and checks, for each (n, s) the simulator
// draws from, that xrand.ZipfGen draws exactly what Rand.Zipf does and
// leaves the generator in the same state. xrand's own tests cover a fixed
// list of pairs; this one follows the workloads, so a new working set or
// skew cannot slip past them.
func TestZipfGenCoversSimulatorPairs(t *testing.T) {
	ws := append(workload.AnalysisUnits(), workload.Executables()...)
	seen := map[zipfPair]bool{}
	for _, plat := range []*soc.Platform{soc.Snapdragon888HDK(), soc.Midrange750G()} {
		pairs := drawnZipfPairs(plat, ws)
		if len(pairs) < 50 {
			t.Fatalf("%s: only %d drawn (n, s) pairs derived", plat.Name, len(pairs))
		}
		for _, p := range pairs {
			if seen[p] {
				continue
			}
			seen[p] = true
			z := xrand.NewZipfGen(p.n, p.s)
			for _, seed := range []uint64{1, 99} {
				a, b := xrand.New(seed), xrand.New(seed)
				for i := 0; i < 2000; i++ {
					if want, got := a.Zipf(p.n, p.s), z.Draw(b); want != got {
						t.Fatalf("n=%d s=%g seed=%d draw %d: Zipf=%d ZipfGen=%d", p.n, p.s, seed, i, want, got)
					}
				}
				if a.Uint64() != b.Uint64() {
					t.Fatalf("n=%d s=%g seed=%d: generator state diverged", p.n, p.s, seed)
				}
			}
		}
	}
}

// BenchmarkZipfGenDrawRun times one draw round-robin over a generator for
// each (n, s) one run draws from, 3DMark Wild Life on the Snapdragon 888
// HDK, so the tables competing for the host's caches are the ones a run
// holds at once. A round-robin over every production pair holds about 90
// tables, which no run does, and ranks table layouts differently from a
// characterization.
func BenchmarkZipfGenDrawRun(b *testing.B) {
	w, err := workload.ByName("3DMark Wild Life")
	if err != nil {
		b.Fatal(err)
	}
	var zs []xrand.ZipfGen
	for _, p := range drawnZipfPairs(soc.Snapdragon888HDK(), []workload.Workload{w}) {
		zs = append(zs, xrand.NewZipfGen(p.n, p.s))
	}
	r := xrand.New(1)
	sum, j := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += zs[j].Draw(r)
		if j++; j == len(zs) {
			j = 0
		}
	}
	zipfSink = sum
}

var zipfSink int
