// Package cluster implements the clustering algorithms and validation
// measures of the paper's similarity analysis (Section VI): K-means,
// Partitioning Around Medoids (PAM) and agglomerative hierarchical
// clustering, with internal validation (Dunn index, Silhouette width) and
// stability validation (average proportion of non-overlap, average
// distance).
package cluster

import (
	"fmt"
	"math"
	"slices"

	"mobilebench/internal/stats"
)

// Assignment maps each observation index to a cluster id in [0, K).
type Assignment []int

// K returns the number of clusters referenced by the assignment.
func (a Assignment) K() int {
	k := 0
	for _, c := range a {
		if c+1 > k {
			k = c + 1
		}
	}
	return k
}

// Members returns the observation indices in cluster c.
func (a Assignment) Members(c int) []int {
	var out []int
	for i, ci := range a {
		if ci == c {
			out = append(out, i)
		}
	}
	return out
}

// Sizes returns the number of observations per cluster.
func (a Assignment) Sizes() []int {
	out := make([]int, a.K())
	for _, c := range a {
		out[c]++
	}
	return out
}

// Canonical renumbers clusters by order of first appearance so that
// assignments from different algorithms can be compared directly. Each
// label is looked up among the labels seen so far, a linear search that
// beats a map at the cluster counts the sweep uses (k ≤ 9).
func (a Assignment) Canonical() Assignment {
	out := make(Assignment, len(a))
	labels := make([]int, 0, 16) // labels[id] is the label renamed to id
	for i, c := range a {
		id := slices.Index(labels, c)
		if id < 0 {
			id = len(labels)
			labels = append(labels, c)
		}
		out[i] = id
	}
	return out
}

// SameGrouping reports whether two assignments induce identical partitions
// (up to cluster relabelling).
func SameGrouping(a, b Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	ca, cb := a.Canonical(), b.Canonical()
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

// Algorithm clusters rows (observations x features) into k groups.
type Algorithm interface {
	// Cluster partitions rows into k clusters.
	Cluster(rows [][]float64, k int) (Assignment, error)
	// Name identifies the algorithm.
	Name() string
}

// ByName returns the algorithm a name selects: "kmeans", "pam" or
// "hierarchical".
func ByName(name string) (Algorithm, error) {
	switch name {
	case "kmeans":
		return NewKMeans(), nil
	case "pam":
		return NewPAM(), nil
	case "hierarchical":
		return NewHierarchical(), nil
	}
	return nil, fmt.Errorf("cluster: unknown clustering algorithm %q", name)
}

// validate checks common preconditions, including that every feature is
// finite: a NaN or infinite feature has no distance order to cluster by.
func validate(rows [][]float64, k int) error {
	if k < 1 {
		return fmt.Errorf("cluster: k must be >= 1, got %d", k)
	}
	if len(rows) < k {
		return fmt.Errorf("cluster: %d observations cannot form %d clusters", len(rows), k)
	}
	nc := -1
	for i, r := range rows {
		if nc == -1 {
			nc = len(r)
		}
		if len(r) != nc {
			return fmt.Errorf("cluster: row %d has %d features, want %d", i, len(r), nc)
		}
		for j, v := range r {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("cluster: row %d feature %d is %v, want a finite value", i, j, v)
			}
		}
	}
	if nc == 0 {
		return fmt.Errorf("cluster: rows have no features")
	}
	return nil
}

// DistanceMatrix returns the full pairwise Euclidean distance matrix.
func DistanceMatrix(rows [][]float64) [][]float64 {
	n := len(rows)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := stats.Euclidean(rows[i], rows[j])
			d[i][j] = v
			d[j][i] = v
		}
	}
	return d
}

// centroid returns the mean vector of the given member rows.
func centroid(rows [][]float64, members []int) []float64 {
	if len(members) == 0 {
		return nil
	}
	nc := len(rows[0])
	c := make([]float64, nc)
	for _, m := range members {
		for j, v := range rows[m] {
			c[j] += v
		}
	}
	for j := range c {
		c[j] /= float64(len(members))
	}
	return c
}

// dropColumn returns rows with column j removed; used by stability
// validation, which re-clusters after deleting each feature in turn.
func dropColumn(rows [][]float64, j int) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = make([]float64, 0, len(r)-1)
		out[i] = append(out[i], r[:j]...)
		out[i] = append(out[i], r[j+1:]...)
	}
	return out
}
