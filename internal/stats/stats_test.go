package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// streamOf folds xs into a Stream, the package's one variance estimator.
func streamOf(xs []float64) *Stream {
	var s Stream
	for _, x := range xs {
		s.Add(x)
	}
	return &s
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almost(Mean(xs), 5) {
		t.Fatalf("mean = %g", Mean(xs))
	}
	if v := streamOf(xs).Variance(); !almost(v, 4) {
		t.Fatalf("variance = %g", v)
	}
	if sd := streamOf(xs).StdDev(); !almost(sd, 2) {
		t.Fatalf("stddev = %g", sd)
	}
	if Mean(nil) != 0 || streamOf(nil).Variance() != 0 {
		t.Fatal("empty inputs should yield 0")
	}
}

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	r, err := Pearson(x, y)
	if err != nil || !almost(r, 1) {
		t.Fatalf("r = %g, err = %v", r, err)
	}
	inv := []float64{8, 6, 4, 2}
	r, _ = Pearson(x, inv)
	if !almost(r, -1) {
		t.Fatalf("r = %g, want -1", r)
	}
}

func TestPearsonKnownValue(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 1, 4, 3, 5}
	r, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-0.8) > 1e-9 {
		t.Fatalf("r = %g, want 0.8", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Fatal("zero variance accepted")
	}
}

func TestStrengthBands(t *testing.T) {
	// The paper: |r| >= 0.8 strong, 0.4..0.8 moderate, below none.
	cases := map[float64]CorrelationStrength{
		0.845:  Strong,
		-0.845: Strong,
		0.588:  Moderate,
		-0.672: Moderate,
		0.228:  NoAssociation,
		-0.174: NoAssociation,
	}
	for r, want := range cases {
		if got := Strength(r); got != want {
			t.Errorf("Strength(%g) = %v, want %v", r, got, want)
		}
	}
	if Strong.String() != "strong" || Moderate.String() != "moderate" || NoAssociation.String() != "none" {
		t.Fatal("strength names wrong")
	}
}

func TestCorrelationMatrix(t *testing.T) {
	cols := [][]float64{
		{1, 2, 3, 4},
		{2, 4, 6, 8},
		{4, 3, 2, 1},
	}
	m := CorrelationMatrix(cols)
	if !almost(m[0][0], 1) || !almost(m[0][1], 1) || !almost(m[0][2], -1) {
		t.Fatalf("matrix = %v", m)
	}
	if m[1][2] != m[2][1] {
		t.Fatal("matrix not symmetric")
	}
	// A zero-variance column yields r = 0 rather than an error.
	m = CorrelationMatrix([][]float64{{1, 2}, {5, 5}})
	if m[0][1] != 0 {
		t.Fatal("degenerate column should correlate as 0")
	}
}

func TestEuclidean(t *testing.T) {
	if !almost(Euclidean([]float64{0, 0}, []float64{3, 4}), 5) {
		t.Fatal("3-4-5 triangle failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	Euclidean([]float64{1}, []float64{1, 2})
}

func TestNormalizeColumnsMax(t *testing.T) {
	rows := [][]float64{{2, 10}, {4, 0}}
	n := NormalizeColumnsMax(rows)
	if !almost(n[0][0], 0.5) || !almost(n[1][0], 1) || !almost(n[0][1], 1) || !almost(n[1][1], 0) {
		t.Fatalf("normalized = %v", n)
	}
	if rows[0][0] != 2 {
		t.Fatal("input mutated")
	}
	// All-zero column stays zero.
	n = NormalizeColumnsMax([][]float64{{0}, {0}})
	if n[0][0] != 0 {
		t.Fatal("zero column mishandled")
	}
}

func TestNormalizeColumnsMinMax(t *testing.T) {
	rows := [][]float64{{10, 5}, {20, 5}, {30, 5}}
	n := NormalizeColumnsMinMax(rows)
	if !almost(n[0][0], 0) || !almost(n[1][0], 0.5) || !almost(n[2][0], 1) {
		t.Fatalf("normalized = %v", n)
	}
	for i := range n {
		if n[i][1] != 0 {
			t.Fatal("constant column should map to zeros")
		}
	}
}

func TestQuickPearsonRange(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 8 {
			return true
		}
		n := len(raw) / 2
		x := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = float64(raw[i])
			y[i] = float64(raw[n+i])
		}
		r, err := Pearson(x, y)
		if err != nil {
			return true // degenerate inputs are allowed to error
		}
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNormalizeMinMaxRange(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 4 {
			return true
		}
		rows := make([][]float64, len(raw)/2)
		for i := range rows {
			rows[i] = []float64{float64(raw[2*i]), float64(raw[2*i+1])}
		}
		for _, r := range NormalizeColumnsMinMax(rows) {
			for _, v := range r {
				if v < 0 || v > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// twoPassVariance is the reference double-pass (mean, then residuals)
// population variance; the pinning test below bounds how far the Welford
// Stream may drift from it.
func twoPassVariance(xs []float64) float64 {
	m := Mean(xs)
	s, n := 0.0, 0
	for _, x := range xs {
		if !IsFinite(x) {
			continue
		}
		d := x - m
		s += d * d
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// TestVarianceMatchesTwoPass pins the single-pass Welford Stream.Variance
// against the two-pass reference on tick-series-like fixtures: the results
// must agree to within a few ULPs of the variance magnitude. This test
// documents and bounds the drift between the two forms.
func TestVarianceMatchesTwoPass(t *testing.T) {
	fixtures := [][]float64{
		{2, 4, 4, 4, 5, 5, 7, 9},
		{0.1, 0.1, 0.1, 0.1},
		{1e9, 1e9 + 1, 1e9 + 2, 1e9 + 3}, // large offset: Welford's strong case
		{0, math.NaN(), 1, math.Inf(1), 2, 3},
		{},
		{42},
	}
	// A long synthetic tick series like the profiler produces.
	long := make([]float64, 100000)
	for i := range long {
		long[i] = 0.5 + 0.4*math.Sin(float64(i)/100) + 0.05*float64(i%7)
	}
	fixtures = append(fixtures, long)

	for fi, xs := range fixtures {
		w := streamOf(xs).Variance()
		ref := twoPassVariance(xs)
		// Tolerance: rounding drift between the forms grows with the
		// number of accumulation steps, so allow ~1 ULP of the reference
		// magnitude per sample (with a small floor for tiny fixtures).
		tol := (8 + float64(len(xs))) * math.Abs(ref) * 1e-16
		if math.Abs(w-ref) > tol {
			t.Errorf("fixture %d: welford = %g, two-pass = %g, |delta| = %g > %g",
				fi, w, ref, math.Abs(w-ref), tol)
		}
	}
}
