package core

import (
	"context"
	"fmt"

	"mobilebench/internal/cluster"
	"mobilebench/internal/stats"
)

// Figures 4-6: similarity analysis. The feature matrix (all performance
// metrics, averaged over each benchmark's runtime) is normalized and
// clustered with K-means, PAM and agglomerative hierarchical clustering;
// the cluster count is validated with two internal and two stability
// measures.

// Algorithms returns the paper's three clustering techniques.
func Algorithms() []cluster.Algorithm {
	return []cluster.Algorithm{
		cluster.NewKMeans(),
		cluster.NewPAM(),
		cluster.NewHierarchical(),
	}
}

// NormalizedFeatures returns the min-max normalized feature matrix used for
// clustering and validation.
func (d *Dataset) NormalizedFeatures() [][]float64 {
	return stats.NormalizeColumnsMinMax(d.FeatureMatrix())
}

// Figure4 sweeps cluster counts kMin..kMax over the three algorithms and
// returns the validation scores. The sweep's jobs fan out over the
// dataset's worker pool.
func (d *Dataset) Figure4(kMin, kMax int) ([]cluster.Scores, error) {
	return d.Figure4Context(context.Background(), kMin, kMax)
}

// Figure4Context is Figure4 with cancellation.
func (d *Dataset) Figure4Context(ctx context.Context, kMin, kMax int) ([]cluster.Scores, error) {
	scores, _, err := cluster.SweepContext(ctx, Algorithms(), d.NormalizedFeatures(), kMin, kMax, d.Workers)
	return scores, err
}

// OptimalK aggregates a Figure 4 sweep into the winning cluster count.
func (d *Dataset) OptimalK(kMin, kMax int) (int, error) {
	scores, err := d.Figure4(kMin, kMax)
	if err != nil {
		return 0, err
	}
	return cluster.BestK(scores), nil
}

// Clustering is one algorithm's grouping of the benchmarks.
type Clustering struct {
	Algorithm string
	K         int
	Assign    cluster.Assignment
	// Groups maps cluster id to member benchmark names.
	Groups [][]string
}

// ClusterWith groups the benchmarks into k clusters using alg.
func (d *Dataset) ClusterWith(alg cluster.Algorithm, k int) (Clustering, error) {
	assign, err := alg.Cluster(d.NormalizedFeatures(), k)
	if err != nil {
		return Clustering{}, err
	}
	groups := make([][]string, assign.K())
	for i, c := range assign {
		groups[c] = append(groups[c], d.Units[i].Workload.Name)
	}
	return Clustering{Algorithm: alg.Name(), K: k, Assign: assign, Groups: groups}, nil
}

// Figure5 returns the hierarchical clustering at k=5 plus its dendrogram.
func (d *Dataset) Figure5() (Clustering, *cluster.Dendrogram, error) {
	h := cluster.NewHierarchical()
	c, err := d.ClusterWith(h, 5)
	if err != nil {
		return Clustering{}, nil, err
	}
	den, err := h.Dendrogram(d.NormalizedFeatures())
	if err != nil {
		return Clustering{}, nil, err
	}
	return c, den, nil
}

// Figure6 returns the K-means clustering at k=5.
func (d *Dataset) Figure6() (Clustering, error) {
	return d.ClusterWith(cluster.NewKMeans(), 5)
}

// AgreementAcrossAlgorithms reports whether all three algorithms produce
// the identical grouping at k (the paper's validation that "all three
// algorithms group the sub-benchmarks identically").
func (d *Dataset) AgreementAcrossAlgorithms(k int) (bool, []Clustering, error) {
	var cs []Clustering
	for _, alg := range Algorithms() {
		c, err := d.ClusterWith(alg, k)
		if err != nil {
			return false, nil, err
		}
		cs = append(cs, c)
	}
	for _, c := range cs[1:] {
		if !cluster.SameGrouping(cs[0].Assign, c.Assign) {
			return false, cs, nil
		}
	}
	return true, cs, nil
}

// GroupOf returns the cluster id containing the named benchmark.
func (c Clustering) GroupOf(name string) (int, error) {
	for id, g := range c.Groups {
		for _, n := range g {
			if n == name {
				return id, nil
			}
		}
	}
	return -1, fmt.Errorf("core: clustering has no benchmark %q", name)
}

// SameCluster reports whether the named benchmarks share a cluster.
func (c Clustering) SameCluster(a, b string) (bool, error) {
	ga, err := c.GroupOf(a)
	if err != nil {
		return false, err
	}
	gb, err := c.GroupOf(b)
	if err != nil {
		return false, err
	}
	return ga == gb, nil
}
