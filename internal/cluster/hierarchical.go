package cluster

import (
	"fmt"
	"math"
)

// Merge records one agglomeration step of the dendrogram. Leaves are
// numbered 0..n-1; internal nodes n, n+1, ... in merge order.
type Merge struct {
	// A, B are the node ids merged at this step.
	A, B int
	// Height is the linkage distance at which they merged.
	Height float64
}

// Dendrogram is the full merge tree of an agglomerative run.
type Dendrogram struct {
	// N is the number of leaves.
	N int
	// Merges has length N-1, in merge order.
	Merges []Merge
}

// Cut slices the dendrogram into k clusters by undoing the last k-1 merges.
func (d *Dendrogram) Cut(k int) (Assignment, error) {
	if k < 1 || k > d.N {
		return nil, fmt.Errorf("cluster: cannot cut %d leaves into %d clusters", d.N, k)
	}
	// Union-find over the first N-k merges.
	parent := make([]int, d.N+len(d.Merges))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for s := 0; s < d.N-k; s++ {
		m := d.Merges[s]
		node := d.N + s
		parent[find(m.A)] = node
		parent[find(m.B)] = node
	}
	assign := make(Assignment, d.N)
	roots := make(map[int]int)
	next := 0
	for i := 0; i < d.N; i++ {
		r := find(i)
		id, ok := roots[r]
		if !ok {
			id = next
			roots[r] = id
			next++
		}
		assign[i] = id
	}
	return assign.Canonical(), nil
}

// Hierarchical is agglomerative hierarchical clustering over Euclidean
// distances with Ward linkage, which minimizes within-cluster variance at
// each merge — the same objective K-means optimizes, and the configuration
// that reproduces the paper's "all three algorithms group the
// sub-benchmarks identically" result.
type Hierarchical struct{}

// NewHierarchical returns Ward-linkage agglomerative clustering.
func NewHierarchical() *Hierarchical { return &Hierarchical{} }

// Name implements Algorithm.
func (h *Hierarchical) Name() string { return "hierarchical-ward" }

// Cluster implements Algorithm.
func (h *Hierarchical) Cluster(rows [][]float64, k int) (Assignment, error) {
	den, err := h.Dendrogram(rows)
	if err != nil {
		return nil, err
	}
	return den.Cut(k)
}

// ClusterDist implements DistAlgorithm. Ward works on centroids, so the
// precomputed matrix goes unused.
func (h *Hierarchical) ClusterDist(rows [][]float64, _ *DistMatrix, k int) (Assignment, error) {
	return h.Cluster(rows, k)
}

// Dendrogram runs the full agglomeration and returns the merge tree.
func (h *Hierarchical) Dendrogram(rows [][]float64) (*Dendrogram, error) {
	if err := validate(rows, 1); err != nil {
		return nil, err
	}
	n := len(rows)
	type node struct {
		id      int
		members []int
		active  bool
	}
	nodes := make([]node, 0, 2*n-1)
	for i := 0; i < n; i++ {
		nodes = append(nodes, node{id: i, members: []int{i}, active: true})
	}

	// Lance-Williams form via centroids: the increase in SSE.
	linkDist := func(a, b []int) float64 {
		ca := centroid(rows, a)
		cb := centroid(rows, b)
		na, nb := float64(len(a)), float64(len(b))
		d := 0.0
		for j := range ca {
			diff := ca[j] - cb[j]
			d += diff * diff
		}
		return math.Sqrt(2 * na * nb / (na + nb) * d)
	}

	den := &Dendrogram{N: n}
	for step := 0; step < n-1; step++ {
		bi, bj, bd := -1, -1, math.Inf(1)
		for i := 0; i < len(nodes); i++ {
			if !nodes[i].active {
				continue
			}
			for j := i + 1; j < len(nodes); j++ {
				if !nodes[j].active {
					continue
				}
				if d := linkDist(nodes[i].members, nodes[j].members); d < bd {
					bi, bj, bd = i, j, d
				}
			}
		}
		merged := node{
			id:      n + step,
			members: append(append([]int(nil), nodes[bi].members...), nodes[bj].members...),
			active:  true,
		}
		nodes[bi].active = false
		nodes[bj].active = false
		nodes = append(nodes, merged)
		den.Merges = append(den.Merges, Merge{A: nodes[bi].id, B: nodes[bj].id, Height: bd})
	}
	return den, nil
}
