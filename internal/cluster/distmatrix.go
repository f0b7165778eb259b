package cluster

import (
	"math"

	"mobilebench/internal/stats"
)

// DistMatrix is an immutable n×n matrix of pairwise Euclidean distances,
// stored flat in row-major order. The Figure 4 sweep computes one per rows
// set and threads it through every clustering and validation call instead of
// letting each call recompute the O(n²·d) distances; entries are exactly the
// stats.Euclidean values those calls would have computed, so results are
// bit-identical. A DistMatrix is never mutated after construction and is
// therefore safe to share across concurrent sweep jobs.
type DistMatrix struct {
	n int
	d []float64
}

// NewDistMatrix computes the full pairwise Euclidean distance matrix of rows.
func NewDistMatrix(rows [][]float64) *DistMatrix {
	n := len(rows)
	m := &DistMatrix{n: n, d: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := stats.Euclidean(rows[i], rows[j])
			m.d[i*n+j] = v
			m.d[j*n+i] = v
		}
	}
	return m
}

// NewDistMatrixDrop computes the distance matrix of rows with feature column
// drop removed, without materializing the reduced rows. Squared differences
// accumulate in ascending column order skipping drop — exactly the order
// stats.Euclidean uses over the reduced vectors — so the entries are
// bit-identical to NewDistMatrix(dropColumn(rows, drop)).
func NewDistMatrixDrop(rows [][]float64, drop int) *DistMatrix {
	n := len(rows)
	m := &DistMatrix{n: n, d: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		a := rows[i]
		for j := i + 1; j < n; j++ {
			b := rows[j]
			s := 0.0
			for c := range a {
				if c == drop {
					continue
				}
				d := a[c] - b[c]
				s += d * d
			}
			v := math.Sqrt(s)
			m.d[i*n+j] = v
			m.d[j*n+i] = v
		}
	}
	return m
}

// N returns the number of observations.
func (m *DistMatrix) N() int { return m.n }

// At returns the distance between observations i and j.
func (m *DistMatrix) At(i, j int) float64 { return m.d[i*m.n+j] }

// row returns observation i's distances to every observation. The matrix
// is symmetric by construction, so row(i)[j] == At(j, i).
func (m *DistMatrix) row(i int) []float64 { return m.d[i*m.n : (i+1)*m.n] }

// Matrices bundles every distance matrix one Figure 4 sweep reuses: the
// full-data matrix plus, for the APN/AD stability measures, the reduced row
// sets and their matrices with each feature column removed in turn. Like
// DistMatrix it is immutable after construction, so one Matrices can back
// all of a sweep's concurrent (algorithm, k) jobs.
type Matrices struct {
	// Rows is the observations×features matrix the distances cover.
	Rows [][]float64
	// Full is the distance matrix over all features.
	Full *DistMatrix
	// DroppedRows[j] is Rows with feature column j removed.
	DroppedRows [][][]float64
	// Dropped[j] is the distance matrix of DroppedRows[j].
	Dropped []*DistMatrix
}

// NewMatrices precomputes the full and per-column-dropped distance matrices
// of rows.
func NewMatrices(rows [][]float64) *Matrices {
	m := &Matrices{Rows: rows, Full: NewDistMatrix(rows)}
	if len(rows) == 0 {
		return m
	}
	nc := len(rows[0])
	m.DroppedRows = make([][][]float64, nc)
	m.Dropped = make([]*DistMatrix, nc)
	for j := 0; j < nc; j++ {
		m.DroppedRows[j] = dropColumn(rows, j)
		m.Dropped[j] = NewDistMatrixDrop(rows, j)
	}
	return m
}

// DistAlgorithm is implemented by algorithms that can reuse a precomputed
// distance matrix over the same rows instead of recomputing it per call.
type DistAlgorithm interface {
	Algorithm
	// ClusterDist is Cluster with dm holding the pairwise distances of
	// rows; results are bit-identical to Cluster(rows, k).
	ClusterDist(rows [][]float64, dm *DistMatrix, k int) (Assignment, error)
}

// clusterDist dispatches to ClusterDist when the algorithm can reuse the
// matrix and falls back to Cluster otherwise.
func clusterDist(alg Algorithm, rows [][]float64, dm *DistMatrix, k int) (Assignment, error) {
	if da, ok := alg.(DistAlgorithm); ok {
		return da.ClusterDist(rows, dm, k)
	}
	return alg.Cluster(rows, k)
}
