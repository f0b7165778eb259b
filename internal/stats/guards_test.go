package stats

import (
	"errors"
	"math"
	"testing"
)

func TestFiniteHelpers(t *testing.T) {
	if !IsFinite(1.5) || IsFinite(math.NaN()) || IsFinite(math.Inf(-1)) {
		t.Fatal("IsFinite misclassifies")
	}
	if !AllFinite([]float64{1, 2, 3}) || AllFinite([]float64{1, math.NaN()}) {
		t.Fatal("AllFinite misclassifies")
	}
}

func TestMeanSkipsNonFinite(t *testing.T) {
	xs := []float64{2, math.NaN(), 4, math.Inf(1)}
	if !almost(Mean(xs), 3) {
		t.Fatalf("mean = %g, want 3 (non-finite skipped)", Mean(xs))
	}
	allBad := []float64{math.NaN(), math.Inf(1)}
	if Mean(allBad) != 0 {
		t.Fatal("all-non-finite input should yield 0, not NaN")
	}
}

func TestPearsonSentinels(t *testing.T) {
	_, err := Pearson([]float64{1, math.NaN(), 3}, []float64{1, 2, 3})
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("NaN input: err = %v, want ErrNonFinite", err)
	}
	_, err = Pearson([]float64{1, 2, 3}, []float64{2, math.Inf(1), 4})
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("Inf input: err = %v, want ErrNonFinite", err)
	}
	_, err = Pearson([]float64{5, 5, 5}, []float64{1, 2, 3})
	if !errors.Is(err, ErrZeroVariance) {
		t.Fatalf("constant input: err = %v, want ErrZeroVariance", err)
	}
	if r, err := Pearson([]float64{1, 2, 3}, []float64{4, 5, 7}); err != nil || !IsFinite(r) {
		t.Fatalf("healthy input: r=%v err=%v", r, err)
	}
}
