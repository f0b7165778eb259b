package core

import (
	"math"
	"sort"
	"testing"

	"mobilebench/internal/cluster"
	"mobilebench/internal/workload"
)

func TestClusteringAgreementAtFive(t *testing.T) {
	// The paper: "all three algorithms group the sub-benchmarks
	// identically", validating the clusters.
	d := dataset(t)
	agree, cs, err := d.AgreementAcrossAlgorithms(5)
	if err != nil {
		t.Fatal(err)
	}
	if !agree {
		for _, c := range cs {
			t.Logf("%s: %v", c.Algorithm, c.Groups)
		}
		t.Fatal("K-means, PAM and hierarchical clustering disagree at k=5")
	}
}

func TestClusterMembershipMatchesCalibration(t *testing.T) {
	// The achieved grouping must satisfy the constraints the paper states
	// and match the calibration table's group labels.
	d := dataset(t)
	fig5, _, err := d.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if fig5.Assign.K() != 5 {
		t.Fatalf("clusters = %d, want 5", fig5.Assign.K())
	}
	// Same group in the table <=> same cluster in the result.
	for _, a := range workload.Targets {
		for _, b := range workload.Targets {
			same, err := fig5.SameCluster(a.Name, b.Name)
			if err != nil {
				t.Fatal(err)
			}
			if same != (a.Cluster == b.Cluster) {
				t.Errorf("%s and %s: clustered together=%v, calibration says %v",
					a.Name, b.Name, same, a.Cluster == b.Cluster)
			}
		}
	}
}

func TestAntutuSegmentsClusterTogether(t *testing.T) {
	// Paper: "All of Antutu's segments are grouped in the same cluster
	// except Antutu GPU."
	d := dataset(t)
	fig6, err := d.ClusterWith(cluster.NewKMeans(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{
		{workload.NameAntutuCPU, workload.NameAntutuMem},
		{workload.NameAntutuCPU, workload.NameAntutuUX},
	} {
		same, err := fig6.SameCluster(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if !same {
			t.Errorf("%s and %s must share a cluster", pair[0], pair[1])
		}
	}
	same, _ := fig6.SameCluster(workload.NameAntutuCPU, workload.NameAntutuGPU)
	if same {
		t.Error("Antutu GPU must not share the other segments' cluster")
	}
}

func TestOptimalClusterCountIsFive(t *testing.T) {
	// Figure 4: the validation vote selects 5 clusters.
	d := dataset(t)
	k, err := d.OptimalK(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if k != 5 {
		t.Fatalf("optimal k = %d, paper selects 5", k)
	}
}

func TestInternalMeasuresPeakAtFive(t *testing.T) {
	// Paper: "the optimal number of clusters is 5 for both the internal
	// measures, regardless of the clustering technique used."
	d := dataset(t)
	scores, err := d.Figure4(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	bySil := map[string]struct {
		k int
		v float64
	}{}
	byDunn := map[string]struct {
		k int
		v float64
	}{}
	for _, s := range scores {
		if cur, ok := bySil[s.Algorithm]; !ok || s.Silhouette > cur.v {
			bySil[s.Algorithm] = struct {
				k int
				v float64
			}{s.K, s.Silhouette}
		}
		if cur, ok := byDunn[s.Algorithm]; !ok || s.Dunn > cur.v {
			byDunn[s.Algorithm] = struct {
				k int
				v float64
			}{s.K, s.Dunn}
		}
	}
	for alg, best := range bySil {
		if best.k != 5 {
			t.Errorf("%s silhouette peaks at k=%d (%.3f), paper: 5", alg, best.k, best.v)
		}
	}
	for alg, best := range byDunn {
		if best.k != 5 {
			t.Errorf("%s Dunn peaks at k=%d (%.3f), paper: 5", alg, best.k, best.v)
		}
	}
}

func TestStabilityMeasuresShape(t *testing.T) {
	// Paper: APN ties in the low range; AD strictly prefers higher k.
	d := dataset(t)
	scores, err := d.Figure4(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"kmeans", "pam", "hierarchical-ward"} {
		var ks []int
		ad := map[int]float64{}
		for _, s := range scores {
			if s.Algorithm != alg {
				continue
			}
			ks = append(ks, s.K)
			ad[s.K] = s.AD
		}
		sort.Ints(ks)
		// AD at the top of the range must undercut AD at the bottom.
		if ad[ks[len(ks)-1]] >= ad[ks[0]] {
			t.Errorf("%s: AD does not prefer high k (k=%d: %.3f vs k=%d: %.3f)",
				alg, ks[len(ks)-1], ad[ks[len(ks)-1]], ks[0], ad[ks[0]])
		}
	}
}

func TestDendrogramCoversAllUnits(t *testing.T) {
	d := dataset(t)
	_, den, err := d.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if den.N != 18 || len(den.Merges) != 17 {
		t.Fatalf("dendrogram shape %d/%d", den.N, len(den.Merges))
	}
}

func TestNormalizedFeatures(t *testing.T) {
	d := dataset(t)
	rows := d.NormalizedFeatures()
	if len(rows) != 18 || len(rows[0]) != len(FeatureNames()) {
		t.Fatalf("feature matrix %dx%d", len(rows), len(rows[0]))
	}
	for i, r := range rows {
		for j, v := range r {
			if v < 0 || v > 1 {
				t.Fatalf("feature[%d][%d] = %g not normalized", i, j, v)
			}
		}
	}
}

func TestClusterWithUnknownAlgorithm(t *testing.T) {
	d := dataset(t)
	if _, err := d.ClusterWith(cluster.NewKMeans(), 50); err == nil {
		t.Fatal("k > n accepted")
	}
}

func TestGroupHelpers(t *testing.T) {
	d := dataset(t)
	fig6, err := d.ClusterWith(cluster.NewKMeans(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fig6.GroupOf("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := fig6.SameCluster("nope", workload.NameGB5CPU); err == nil {
		t.Fatal("unknown pair accepted")
	}
	g, err := fig6.GroupOf(workload.NameGB5CPU)
	if err != nil || g < 0 {
		t.Fatalf("GroupOf failed: %v", err)
	}
}

func TestSilhouetteAtFiveReasonable(t *testing.T) {
	d := dataset(t)
	rows := d.NormalizedFeatures()
	fig6, _ := d.ClusterWith(cluster.NewKMeans(), 5)
	s := cluster.Silhouette(rows, fig6.Assign)
	if s < 0.3 {
		t.Fatalf("silhouette at k=5 is %.3f; the 5-cluster structure should be meaningful", s)
	}
	if math.IsNaN(s) {
		t.Fatal("silhouette NaN")
	}
}
