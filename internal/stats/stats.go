// Package stats provides the statistical primitives of the analysis layer:
// Pearson correlation (Table III), min-max normalization, Euclidean
// distances (the Yi et al. subset-representativeness technique) and summary
// helpers.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// Sentinel errors for undefined statistics. Callers that feed Table III
// (CorrelationMatrix) substitute an explicit 0 for entries carrying these
// errors instead of letting NaN propagate into the report.
var (
	// ErrNonFinite marks inputs containing NaN or Inf samples.
	ErrNonFinite = errors.New("stats: non-finite input")
	// ErrZeroVariance marks a correlation over a constant series.
	ErrZeroVariance = errors.New("stats: zero-variance input")
)

// IsFinite reports whether v is neither NaN nor infinite.
func IsFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// AllFinite reports whether every value in xs is finite.
func AllFinite(xs []float64) bool {
	for _, x := range xs {
		if !IsFinite(x) {
			return false
		}
	}
	return true
}

// Mean returns the arithmetic mean of the finite values of xs (0 when xs
// is empty or has no finite values). NaN/Inf samples — corrupted counter
// readings — are excluded rather than propagated.
func Mean(xs []float64) float64 {
	s, n := 0.0, 0
	for _, x := range xs {
		if !IsFinite(x) {
			continue
		}
		s += x
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// Pearson returns the Pearson correlation coefficient between x and y.
// It returns an error when the lengths differ, either input contains a
// non-finite value (wrapping ErrNonFinite), or either series has zero
// variance (wrapping ErrZeroVariance; the coefficient is undefined).
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("stats: Pearson length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return 0, fmt.Errorf("stats: Pearson needs at least 2 points")
	}
	if !AllFinite(x) || !AllFinite(y) {
		return 0, fmt.Errorf("stats: Pearson: %w", ErrNonFinite)
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, fmt.Errorf("stats: Pearson: %w", ErrZeroVariance)
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// CorrelationStrength classifies a Pearson coefficient the way the paper
// does: |r| >= 0.8 strong, 0.4 <= |r| < 0.8 moderate, otherwise none.
type CorrelationStrength int

// Correlation strength bands.
const (
	NoAssociation CorrelationStrength = iota
	Moderate
	Strong
)

// String returns the band name.
func (c CorrelationStrength) String() string {
	switch c {
	case Strong:
		return "strong"
	case Moderate:
		return "moderate"
	default:
		return "none"
	}
}

// Strength classifies r into the paper's bands.
func Strength(r float64) CorrelationStrength {
	a := math.Abs(r)
	switch {
	case a >= 0.8:
		return Strong
	case a >= 0.4:
		return Moderate
	default:
		return NoAssociation
	}
}

// CorrelationMatrix returns the full Pearson matrix of the columns.
// Undefined entries (zero variance or non-finite inputs) are reported as
// an explicit 0 — never NaN — so Table III stays printable even over a
// degraded dataset.
func CorrelationMatrix(cols [][]float64) [][]float64 {
	n := len(cols)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		m[i][i] = 1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			r, err := Pearson(cols[i], cols[j])
			if err != nil {
				r = 0
			}
			m[i][j] = r
			m[j][i] = r
		}
	}
	return m
}

// Euclidean returns the Euclidean distance between two equal-length vectors.
// It panics on length mismatch: vectors come from the same feature matrix,
// so a mismatch is a programming error.
func Euclidean(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: Euclidean length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// NormalizeColumnsMax scales every column of the matrix by its maximum
// absolute value (the paper's step 2: "normalize the performance metrics to
// the maximum recorded value of each"). Columns whose maximum is zero are
// left as zeros. The input is not modified.
func NormalizeColumnsMax(rows [][]float64) [][]float64 {
	if len(rows) == 0 {
		return nil
	}
	nc := len(rows[0])
	maxAbs := make([]float64, nc)
	for _, r := range rows {
		for j, v := range r {
			if a := math.Abs(v); a > maxAbs[j] {
				maxAbs[j] = a
			}
		}
	}
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = make([]float64, nc)
		for j, v := range r {
			if maxAbs[j] > 0 {
				out[i][j] = v / maxAbs[j]
			}
		}
	}
	return out
}

// NormalizeColumnsMinMax scales every column to [0,1] using its min and max.
// Constant columns become zeros. The input is not modified.
func NormalizeColumnsMinMax(rows [][]float64) [][]float64 {
	if len(rows) == 0 {
		return nil
	}
	nc := len(rows[0])
	lo := make([]float64, nc)
	hi := make([]float64, nc)
	for j := 0; j < nc; j++ {
		lo[j], hi[j] = math.Inf(1), math.Inf(-1)
	}
	for _, r := range rows {
		for j, v := range r {
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = make([]float64, nc)
		for j, v := range r {
			if span := hi[j] - lo[j]; span > 0 {
				out[i][j] = (v - lo[j]) / span
			}
		}
	}
	return out
}
