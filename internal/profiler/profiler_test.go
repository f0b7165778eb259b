package profiler

import (
	"strings"
	"testing"
)

func TestSampleAndTrace(t *testing.T) {
	p := New(0.1, 0)
	for i := 0; i < 5; i++ {
		p.Sample("a", float64(i))
		p.Sample("b", float64(i)*2)
	}
	tr, err := p.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Samples != 5 || tr.NumMetrics() != 2 {
		t.Fatalf("trace shape %dx%d", tr.NumMetrics(), tr.Samples)
	}
	if tr.Series("a").Values[3] != 3 {
		t.Fatal("sample values lost")
	}
	if tr.Series("missing") != nil {
		t.Fatal("missing metric should be nil")
	}
	if tr.Duration() != 0.5 {
		t.Fatalf("duration = %g", tr.Duration())
	}
}

func TestMisalignedSeriesRejected(t *testing.T) {
	p := New(0.1, 0)
	p.Sample("a", 1)
	p.Sample("a", 2)
	p.Sample("b", 1)
	if _, err := p.Trace(); err == nil {
		t.Fatal("misaligned series accepted")
	}
}

func TestMustSeriesPanics(t *testing.T) {
	p := New(0.1, 0)
	p.Sample("a", 1)
	tr, _ := p.Trace()
	defer func() {
		if recover() == nil {
			t.Fatal("MustSeries on missing metric did not panic")
		}
	}()
	tr.MustSeries("nope")
}

func TestMetricsOrder(t *testing.T) {
	p := New(0.1, 0)
	p.Sample("z", 1)
	p.Sample("a", 1)
	tr, _ := p.Trace()
	m := tr.Metrics()
	if m[0] != "z" || m[1] != "a" {
		t.Fatalf("first-sampled order lost: %v", m)
	}
}

func TestMeanTraces(t *testing.T) {
	mk := func(base float64, n int) *Trace {
		p := New(0.1, 0)
		for i := 0; i < n; i++ {
			p.Sample("m", base+float64(i))
		}
		tr, _ := p.Trace()
		return tr
	}
	mean, err := MeanTraces([]*Trace{mk(0, 4), mk(10, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if mean.Series("m").Values[0] != 5 {
		t.Fatalf("mean = %v", mean.Series("m").Values)
	}
}

func TestMeanTracesResamplesJitteredRuns(t *testing.T) {
	mk := func(n int) *Trace {
		p := New(0.1, 0)
		for i := 0; i < n; i++ {
			p.Sample("m", 1)
		}
		tr, _ := p.Trace()
		return tr
	}
	mean, err := MeanTraces([]*Trace{mk(100), mk(103)})
	if err != nil {
		t.Fatal(err)
	}
	if mean.Samples != 100 {
		t.Fatalf("mean trace should use the shortest run: %d", mean.Samples)
	}
}

func TestMeanTracesErrors(t *testing.T) {
	if _, err := MeanTraces(nil); err == nil {
		t.Fatal("mean of no traces accepted")
	}
	p1 := New(0.1, 0)
	p1.Sample("a", 1)
	t1, _ := p1.Trace()
	p2 := New(0.1, 0)
	p2.Sample("b", 1)
	t2, _ := p2.Trace()
	if _, err := MeanTraces([]*Trace{t1, t2}); err == nil {
		t.Fatal("metric mismatch accepted")
	}
}

func TestWriteCSV(t *testing.T) {
	p := New(0.5, 0)
	p.Sample("x", 1)
	p.Sample("y", 2)
	p.Sample("x", 3)
	p.Sample("y", 4)
	tr, _ := p.Trace()
	var b strings.Builder
	if err := tr.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if lines[0] != "time_s,x,y" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0.250,") {
		t.Fatalf("first row = %q", lines[1])
	}
}

// TestSlotsKeepFirstSampleOrder: resolving a slot creates no series, so
// the trace's metric order is the order of first samples, through Put and
// Sample alike, and a slot never sampled stays out of the trace.
func TestSlotsKeepFirstSampleOrder(t *testing.T) {
	p := New(0.1, 0)
	b, a := p.Slot("b"), p.Slot("a")
	p.Slot("unused")
	if p.Slot("b") != b {
		t.Fatal("resolving a name twice gave two slots")
	}
	for i := 0; i < 3; i++ {
		p.Put(a, float64(i))
		p.Sample("b", 10+float64(i))
	}
	p.Put(b, 13)
	p.Put(a, 3)
	tr, err := p.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(tr.Metrics(), ","); got != "a,b" {
		t.Fatalf("metrics %q, want a,b", got)
	}
	if tr.Samples != 4 || tr.MustSeries("b").Values[3] != 13 {
		t.Fatalf("samples %d, b %v", tr.Samples, tr.MustSeries("b").Values)
	}
}
