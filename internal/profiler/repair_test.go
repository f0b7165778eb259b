package profiler

import (
	"math"
	"testing"
)

func sampledTrace(t *testing.T, n int) *Trace {
	t.Helper()
	p := New(0.1, 0)
	for i := 0; i < n; i++ {
		p.Sample("m.a", float64(i))
		p.Sample("m.b", 10+float64(i))
	}
	tr, err := p.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTraceValidate(t *testing.T) {
	tr := sampledTrace(t, 10)
	if err := tr.Validate(); err != nil {
		t.Fatalf("clean trace invalid: %v", err)
	}
	var nilTrace *Trace
	if err := nilTrace.Validate(); err == nil {
		t.Fatal("nil trace accepted")
	}
}

func TestTraceValidateMisaligned(t *testing.T) {
	tr := sampledTrace(t, 10)
	s := tr.Series("m.b")
	s.Values = s.Values[:7]
	err := tr.Validate()
	if err == nil {
		t.Fatal("misaligned trace accepted")
	}
}

func TestTraceRepairTruncatesAndInterpolates(t *testing.T) {
	tr := sampledTrace(t, 10)
	tr.Series("m.b").Values = tr.Series("m.b").Values[:7]
	tr.Series("m.a").Values[3] = math.NaN()
	st, err := tr.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if st.TruncatedSamples != 3 {
		t.Fatalf("TruncatedSamples = %d, want 3", st.TruncatedSamples)
	}
	if st.InterpolatedSamples != 1 {
		t.Fatalf("InterpolatedSamples = %d, want 1", st.InterpolatedSamples)
	}
	if st.Total() != 4 {
		t.Fatalf("Total = %d, want 4", st.Total())
	}
	if tr.Samples != 7 {
		t.Fatalf("Samples = %d, want 7", tr.Samples)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("repaired trace still invalid: %v", err)
	}
	if got := tr.Series("m.a").Values[3]; math.Abs(got-3) > 1e-12 {
		t.Fatalf("interpolated sample = %g, want 3", got)
	}
}

func TestTraceRepairUnrepairable(t *testing.T) {
	tr := sampledTrace(t, 4)
	s := tr.Series("m.a")
	for i := range s.Values {
		s.Values[i] = math.NaN()
	}
	if _, err := tr.Repair(); err == nil {
		t.Fatal("trace with an all-NaN series repaired")
	}
}
