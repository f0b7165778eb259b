package stats

import (
	"math"
	"sort"
	"testing"
)

func TestStreamMatchesBatch(t *testing.T) {
	vals := []float64{3.2, 0, 1.5, 9.9, 4.4, 2.2, 7.7, 0.1, 5.5, 6.6}
	var s Stream
	for _, v := range vals {
		s.Add(v)
	}
	if got, want := s.Mean(), Mean(vals); math.Abs(got-want) > 1e-12 {
		t.Errorf("Mean = %g, want %g", got, want)
	}
	if got, want := s.Variance(), twoPassVariance(vals); math.Abs(got-want) > 1e-12 {
		t.Errorf("Variance = %g, want %g", got, want)
	}
	if s.Min() != 0 || s.Max() != 9.9 {
		t.Errorf("Min/Max = %g/%g, want 0/9.9", s.Min(), s.Max())
	}
	if s.Count() != int64(len(vals)) {
		t.Errorf("Count = %d, want %d", s.Count(), len(vals))
	}
}

func TestStreamSkipsNonFinite(t *testing.T) {
	var s Stream
	s.Add(1)
	s.Add(math.NaN())
	s.Add(math.Inf(1))
	s.Add(3)
	if s.Count() != 2 || s.Mean() != 2 {
		t.Errorf("Count/Mean = %d/%g, want 2/2", s.Count(), s.Mean())
	}
}

func TestStreamAddNMatchesLoop(t *testing.T) {
	var loop, bulk Stream
	// Seed both with the same prefix, then fold 1000 repeats of 2.5: AddN must
	// agree with repeated Add to float tolerance (it is the closed form the
	// fast-forward path relies on).
	for _, v := range []float64{1.25, 8.0, 0.5} {
		loop.Add(v)
		bulk.Add(v)
	}
	const k, v = 1000, 2.5
	for i := 0; i < k; i++ {
		loop.Add(v)
	}
	bulk.AddN(v, k)
	if loop.Count() != bulk.Count() {
		t.Fatalf("Count: loop %d, bulk %d", loop.Count(), bulk.Count())
	}
	if d := math.Abs(loop.Mean() - bulk.Mean()); d > 1e-12 {
		t.Errorf("Mean drift %g", d)
	}
	if d := math.Abs(loop.Variance() - bulk.Variance()); d > 1e-9 {
		t.Errorf("Variance drift %g", d)
	}
	if loop.Min() != bulk.Min() || loop.Max() != bulk.Max() {
		t.Errorf("extrema mismatch")
	}
}

func TestStreamMergeMatchesSequential(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7}
	var whole, a, b Stream
	for i, v := range vals {
		whole.Add(v)
		if i < 5 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(&b)
	if a.Count() != whole.Count() {
		t.Fatalf("Count: merged %d, whole %d", a.Count(), whole.Count())
	}
	if d := math.Abs(a.Mean() - whole.Mean()); d > 1e-12 {
		t.Errorf("Mean drift %g", d)
	}
	if d := math.Abs(a.Variance() - whole.Variance()); d > 1e-12 {
		t.Errorf("Variance drift %g", d)
	}
	var empty Stream
	empty.Merge(&a)
	if empty.Mean() != a.Mean() || empty.Count() != a.Count() {
		t.Errorf("merge into empty lost state")
	}
}

func TestQuantilesAccuracy(t *testing.T) {
	// 1..1000: every quantile estimate must land within the grid's relative
	// error bound (one log2/16 bucket ≈ 4.4%).
	var q Quantiles
	var vals []float64
	for i := 1; i <= 1000; i++ {
		v := float64(i)
		q.Add(v)
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	for _, p := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		want := vals[int(p*float64(len(vals)-1))]
		got := q.Quantile(p)
		if rel := math.Abs(got-want) / want; rel > 0.045 {
			t.Errorf("Quantile(%g) = %g, want %g ±4.5%% (rel %.3f)", p, got, want, rel)
		}
	}
}

func TestQuantilesZerosAndFrac(t *testing.T) {
	var q Quantiles
	q.AddN(0, 60)
	q.AddN(10, 40)
	if got := q.Quantile(0.5); got != 0 {
		t.Errorf("median = %g, want 0 (60%% zeros)", got)
	}
	if got := q.FracAbove(0); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("FracAbove(0) = %g, want 0.4", got)
	}
	if got := q.FracAbove(5); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("FracAbove(5) = %g, want 0.4", got)
	}
	if got := q.FracAbove(100); got != 0 {
		t.Errorf("FracAbove(100) = %g, want 0", got)
	}
}

func TestQuantilesAddNMatchesLoop(t *testing.T) {
	var loop, bulk Quantiles
	for i := 0; i < 500; i++ {
		loop.Add(3.75)
	}
	bulk.AddN(3.75, 500)
	if loop.Count() != bulk.Count() || loop.Quantile(0.5) != bulk.Quantile(0.5) {
		t.Errorf("AddN diverged from loop")
	}
}

func TestQuantilesMerge(t *testing.T) {
	var a, b, whole Quantiles
	for i := 1; i <= 100; i++ {
		whole.Add(float64(i))
		if i%2 == 0 {
			a.Add(float64(i))
		} else {
			b.Add(float64(i))
		}
	}
	a.Merge(&b)
	if a.Count() != whole.Count() {
		t.Fatalf("Count: merged %d, whole %d", a.Count(), whole.Count())
	}
	for _, p := range []float64{0.1, 0.5, 0.9} {
		if a.Quantile(p) != whole.Quantile(p) {
			t.Errorf("Quantile(%g): merged %g, whole %g", p, a.Quantile(p), whole.Quantile(p))
		}
	}
}
