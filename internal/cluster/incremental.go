// Delta construction of distance matrices: a streamed observation should
// cost O(n·d) distance work, not the O(n²·d) of a cold rebuild. Each
// DistMatrix entry is an independent stats.Euclidean value, so appending
// rows or replacing one row only invalidates the touched row/column — the
// untouched block is copied bit-for-bit and the recomputed entries use the
// exact accumulation order of the cold constructors, making every delta
// matrix bit-identical to NewDistMatrix/NewDistMatrixDrop over the same
// rows (pinned by the differential tests in incremental_test.go).
package cluster

import "math"

// distDrop measures rows a and b with feature column drop removed
// (drop < 0 = all columns). The squared differences accumulate in
// ascending column order — the same order stats.Euclidean and
// NewDistMatrixDrop use — so the result is bit-identical to theirs.
func distDrop(a, b []float64, drop int) float64 {
	s := 0.0
	for c := range a {
		if c == drop {
			continue
		}
		d := a[c] - b[c]
		s += d * d
	}
	return math.Sqrt(s)
}

// AppendRows returns the distance matrix of rows, where rows[:m.N()] are
// the unchanged observations m was built over and the remainder is newly
// appended. Existing entries are copied; only the new rows' distances are
// computed, so the cost is O(added·n·d) instead of O(n²·d). The result is
// bit-identical to NewDistMatrix(rows).
func (m *DistMatrix) AppendRows(rows [][]float64) *DistMatrix {
	return m.grow(rows, -1)
}

// AppendRowsDrop is AppendRows for a matrix built by NewDistMatrixDrop:
// bit-identical to NewDistMatrixDrop(rows, drop).
func (m *DistMatrix) AppendRowsDrop(rows [][]float64, drop int) *DistMatrix {
	return m.grow(rows, drop)
}

func (m *DistMatrix) grow(rows [][]float64, drop int) *DistMatrix {
	n, old := len(rows), m.n
	if n < old {
		panic("cluster: AppendRows with fewer rows than the existing matrix")
	}
	out := &DistMatrix{n: n, d: make([]float64, n*n)}
	for i := 0; i < old; i++ {
		copy(out.d[i*n:i*n+old], m.d[i*old:i*old+old])
	}
	for i := 0; i < n; i++ {
		lo := old
		if i+1 > lo {
			lo = i + 1
		}
		for j := lo; j < n; j++ {
			v := distDrop(rows[i], rows[j], drop)
			out.d[i*n+j] = v
			out.d[j*n+i] = v
		}
	}
	return out
}

// UpdateRow returns the distance matrix of rows where only rows[ri]
// changed since m was built: the matrix is copied and row/column ri
// recomputed, costing O(n·d). Bit-identical to NewDistMatrix(rows) —
// IEEE negation is exact, so measuring (ri, j) and (j, ri) from either
// side produces the same bits.
func (m *DistMatrix) UpdateRow(rows [][]float64, ri int) *DistMatrix {
	return m.update(rows, ri, -1)
}

// UpdateRowDrop is UpdateRow for a matrix built by NewDistMatrixDrop:
// bit-identical to NewDistMatrixDrop(rows, drop).
func (m *DistMatrix) UpdateRowDrop(rows [][]float64, ri, drop int) *DistMatrix {
	return m.update(rows, ri, drop)
}

func (m *DistMatrix) update(rows [][]float64, ri, drop int) *DistMatrix {
	n := len(rows)
	if n != m.n {
		panic("cluster: UpdateRow with a different row count than the existing matrix")
	}
	out := &DistMatrix{n: n, d: append([]float64(nil), m.d...)}
	for j := 0; j < n; j++ {
		if j == ri {
			continue
		}
		v := distDrop(rows[ri], rows[j], drop)
		out.d[ri*n+j] = v
		out.d[j*n+ri] = v
	}
	return out
}

// dropOne returns row r with feature column j removed, built exactly as
// dropColumn builds each of its rows.
func dropOne(r []float64, j int) []float64 {
	out := make([]float64, 0, len(r)-1)
	out = append(out, r[:j]...)
	return append(out, r[j+1:]...)
}

// AppendRows returns the sweep matrices of rows, where rows[:len(m.Rows)]
// are unchanged and the remainder is newly appended: the full and
// per-column-dropped matrices grow by delta, and the existing reduced row
// slices are shared (they are immutable after construction). Bit-identical
// to NewMatrices(rows).
func (m *Matrices) AppendRows(rows [][]float64) *Matrices {
	if len(m.Rows) == 0 || len(rows) == 0 {
		return NewMatrices(rows)
	}
	out := &Matrices{Rows: rows, Full: m.Full.AppendRows(rows)}
	nc := len(rows[0])
	added := rows[len(m.Rows):]
	out.DroppedRows = make([][][]float64, nc)
	out.Dropped = make([]*DistMatrix, nc)
	for j := 0; j < nc; j++ {
		dr := make([][]float64, 0, len(rows))
		dr = append(dr, m.DroppedRows[j]...)
		for _, r := range added {
			dr = append(dr, dropOne(r, j))
		}
		out.DroppedRows[j] = dr
		out.Dropped[j] = m.Dropped[j].AppendRowsDrop(rows, j)
	}
	return out
}

// UpdateRow returns the sweep matrices of rows where only rows[ri] changed
// since m was built. Bit-identical to NewMatrices(rows).
func (m *Matrices) UpdateRow(rows [][]float64, ri int) *Matrices {
	out := &Matrices{Rows: rows, Full: m.Full.UpdateRow(rows, ri)}
	nc := len(rows[0])
	out.DroppedRows = make([][][]float64, nc)
	out.Dropped = make([]*DistMatrix, nc)
	for j := 0; j < nc; j++ {
		dr := append([][]float64(nil), m.DroppedRows[j]...)
		dr[ri] = dropOne(rows[ri], j)
		out.DroppedRows[j] = dr
		out.Dropped[j] = m.Dropped[j].UpdateRowDrop(rows, ri, j)
	}
	return out
}
