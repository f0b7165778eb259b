package subset

import (
	"context"
	"fmt"
	"testing"
)

// benchSubsetInput builds a deterministic benchmark list (LCG-scattered
// feature vectors, varied runtimes) for the selection benchmarks.
func benchSubsetInput(n, d int) []Benchmark {
	bs := make([]Benchmark, n)
	state := uint64(0x2545f4914f6cdd1d)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>40) / float64(1<<24) // [0, 1)
	}
	for i := range bs {
		features := make([]float64, d)
		for j := range features {
			features[j] = float64(i%5)*4 + next()
		}
		bs[i] = Benchmark{
			Name:       fmt.Sprintf("bench-%02d", i),
			RuntimeSec: 30 + 10*next(),
			Features:   features,
		}
	}
	return bs
}

// BenchmarkSubsetSelect covers the Figure 7 selection path: greedy subset
// construction followed by the growth curve (each point a TotalMinDistance
// over the prefix). Gated in CI by scripts/bench-ab.sh against the base
// commit.
func BenchmarkSubsetSelect(b *testing.B) {
	bs := benchSubsetInput(24, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := Greedy(bs, 6)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := GrowthCurveContext(context.Background(), bs, set, 1); err != nil {
			b.Fatal(err)
		}
	}
}
