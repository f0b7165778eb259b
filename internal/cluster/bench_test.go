package cluster

import (
	"context"
	"testing"
)

// benchBlobRows builds a deterministic synthetic dataset: n observations of
// d features scattered around 4 well-separated centers by a small LCG, so
// benchmark runs are reproducible without math/rand.
func benchBlobRows(n, d int) [][]float64 {
	rows := make([][]float64, n)
	state := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>40) / float64(1<<24) // [0, 1)
	}
	for i := range rows {
		center := float64(i % 4)
		row := make([]float64, d)
		for j := range row {
			row[j] = center*10 + next()
		}
		rows[i] = row
	}
	return rows
}

// BenchmarkClusterSweep covers the Figure 4 path: a full validation sweep
// (clustering + APN/AD/Dunn/silhouette per k) across K-means and PAM, with
// every clustering and stability re-clustering reading the sweep's shared
// DistMatrix instead of recomputing distances per call. Gated in CI by
// scripts/bench-ab.sh against the base commit.
func BenchmarkClusterSweep(b *testing.B) {
	rows := benchBlobRows(24, 8)
	algs := []Algorithm{NewKMeans(), NewPAM()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SweepContext(context.Background(), algs, rows, 2, 6, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamFold is the sweep every stream ack waits on: the paper's
// 18 analysis units × 10 features, K-means, PAM and Ward, k 2..9, over 2
// workers — the shape core.StreamState.Ingest re-runs per record.
func BenchmarkStreamFold(b *testing.B) {
	rows := benchBlobRows(18, 10)
	algs := []Algorithm{NewKMeans(), NewPAM(), NewHierarchical()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SweepContext(context.Background(), algs, rows, 2, 9, 2); err != nil {
			b.Fatal(err)
		}
	}
}
