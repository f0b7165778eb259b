package cache

import (
	"testing"

	"mobilebench/internal/soc"
	"mobilebench/internal/xrand"
)

// BenchmarkStreamGenBatch measures the sampled memory path of one sim
// tick on its own: one Batch of 1500 accesses (the simulator's default
// CacheSamples) from a fixed mixed pattern through a Big-core hierarchy
// of the Snapdragon 888, warm from earlier iterations.
func BenchmarkStreamGenBatch(b *testing.B) {
	p := soc.Snapdragon888HDK()
	h, err := NewHierarchy(p.Clusters[soc.Big], MustNew(p.L3), MustNew(p.SLC))
	if err != nil {
		b.Fatal(err)
	}
	g := NewStreamGen(AccessPattern{
		WorkingSetBytes:  16 << 20,
		SequentialFrac:   0.5,
		ReuseSkew:        1.2,
		StridedFrac:      0.1,
		HotFrac:          0.8,
		PrefetchCoverage: 0.85,
	}, 1, xrand.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Batch(h, 1500)
	}
}
