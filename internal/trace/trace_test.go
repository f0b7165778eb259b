package trace

import (
	"math"
	"testing"
	"testing/quick"
)

func seriesOf(vals ...float64) *Series {
	s := NewSeries("t", 0.1)
	for _, v := range vals {
		s.Append(v)
	}
	return s
}

func TestBasics(t *testing.T) {
	s := seriesOf(1, 2, 3, 4)
	if s.Len() != 4 {
		t.Fatalf("len = %d", s.Len())
	}
	if math.Abs(s.Duration()-0.4) > 1e-12 {
		t.Fatalf("duration = %g", s.Duration())
	}
	if s.Mean() != 2.5 || s.Min() != 1 || s.Max() != 4 {
		t.Fatalf("stats wrong: mean=%g min=%g max=%g", s.Mean(), s.Min(), s.Max())
	}
}

func TestEmptySeries(t *testing.T) {
	s := NewSeries("e", 0.1)
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.At(1) != 0 {
		t.Fatal("empty series should report zeros")
	}
}

func TestAt(t *testing.T) {
	s := seriesOf(10, 20, 30)
	if s.At(-5) != 10 {
		t.Fatal("At before start should clamp to first")
	}
	if s.At(0.15) != 20 {
		t.Fatalf("At(0.15) = %g, want 20", s.At(0.15))
	}
	if s.At(100) != 30 {
		t.Fatal("At past end should clamp to last")
	}
}

func TestClone(t *testing.T) {
	s := seriesOf(1, 2)
	c := s.Clone()
	c.Values[0] = 99
	if s.Values[0] == 99 {
		t.Fatal("clone shares backing storage")
	}
}

func TestResampleMeanPreserving(t *testing.T) {
	s := seriesOf(1, 1, 3, 3)
	r := s.Resample(2)
	if r.Len() != 2 || r.Values[0] != 1 || r.Values[1] != 3 {
		t.Fatalf("resample = %v", r.Values)
	}
	// Mean is preserved when the bucket count divides the length.
	if math.Abs(r.Mean()-s.Mean()) > 1e-12 {
		t.Fatalf("resample changed mean: %g vs %g", r.Mean(), s.Mean())
	}
}

func TestResampleUpsamples(t *testing.T) {
	s := seriesOf(1, 2)
	r := s.Resample(4)
	if r.Len() != 4 {
		t.Fatalf("upsample len = %d", r.Len())
	}
	if r.Values[0] != 1 || r.Values[3] != 2 {
		t.Fatalf("upsample endpoints wrong: %v", r.Values)
	}
}

func TestResampleDegenerate(t *testing.T) {
	if r := seriesOf(1, 2).Resample(0); r.Len() != 0 {
		t.Fatal("n=0 resample should be empty")
	}
	if r := NewSeries("e", 0.1).Resample(4); r.Len() != 4 {
		t.Fatal("empty-series resample should be zero-filled at requested length")
	}
}

func TestNormalizeTo(t *testing.T) {
	s := seriesOf(0, 5, 10, 20)
	n := s.NormalizeTo(0, 10)
	want := []float64{0, 0.5, 1, 1} // clamped at 1
	for i, v := range want {
		if math.Abs(n.Values[i]-v) > 1e-12 {
			t.Fatalf("normalized[%d] = %g, want %g", i, n.Values[i], v)
		}
	}
	flat := s.NormalizeTo(5, 5)
	for _, v := range flat.Values {
		if v != 0 {
			t.Fatal("degenerate bounds should normalize to zeros")
		}
	}
}

func TestRegionsAbove(t *testing.T) {
	s := seriesOf(0, 0.6, 0.7, 0.2, 0.9, 0.9)
	regions := s.RegionsAbove(0.5)
	if len(regions) != 2 {
		t.Fatalf("regions = %v", regions)
	}
	if regions[0] != (Region{1, 3}) || regions[1] != (Region{4, 6}) {
		t.Fatalf("regions = %v", regions)
	}
	if math.Abs(regions[0].Frac(6)-2.0/6) > 1e-12 {
		t.Fatalf("frac = %g", regions[0].Frac(6))
	}
}

func TestFracAbove(t *testing.T) {
	s := seriesOf(0, 1, 1, 0)
	if s.FracAbove(0.5) != 0.5 {
		t.Fatalf("frac above = %g", s.FracAbove(0.5))
	}
	if NewSeries("e", 1).FracAbove(0.5) != 0 {
		t.Fatal("empty series frac should be 0")
	}
}

func TestMeanSeries(t *testing.T) {
	a := seriesOf(1, 2)
	b := seriesOf(3, 4)
	m, err := MeanSeries("m", []*Series{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if m.Values[0] != 2 || m.Values[1] != 3 {
		t.Fatalf("mean = %v", m.Values)
	}
}

func TestMeanSeriesErrors(t *testing.T) {
	if _, err := MeanSeries("m", nil); err == nil {
		t.Fatal("mean of nothing accepted")
	}
	a := seriesOf(1, 2)
	b := seriesOf(1)
	if _, err := MeanSeries("m", []*Series{a, b}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestQuickResampleBounds(t *testing.T) {
	f := func(raw []uint8, nRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSeries("q", 0.1)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range raw {
			fv := float64(v)
			s.Append(fv)
			lo = math.Min(lo, fv)
			hi = math.Max(hi, fv)
		}
		n := int(nRaw%50) + 1
		r := s.Resample(n)
		if r.Len() != n {
			return false
		}
		for _, v := range r.Values {
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNormalizeRange(t *testing.T) {
	f := func(raw []uint8) bool {
		s := NewSeries("q", 0.1)
		for _, v := range raw {
			s.Append(float64(v))
		}
		n := s.NormalizeTo(0, 255)
		for _, v := range n.Values {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
