// Package trace provides time-series containers and transformations used by
// the profiler and by the temporal-behaviour analysis (Figure 2 of the
// paper): uniform-interval series, resampling onto a normalized time axis,
// global [0,1] normalization, and above-threshold region extraction.
package trace

import (
	"fmt"
	"math"
)

// Series is a uniformly sampled time series.
type Series struct {
	// Name identifies the metric.
	Name string
	// DT is the sampling interval in seconds.
	DT float64
	// Values holds one sample per interval, starting at t = DT/2.
	Values []float64
}

// NewSeries creates an empty series.
func NewSeries(name string, dt float64) *Series {
	return &Series{Name: name, DT: dt}
}

// NewSeriesCap creates an empty series whose backing array is pre-sized for
// capHint samples, so a producer that knows its tick count up front (the
// simulation engine derives it from the workload's phase timeline) appends
// without ever regrowing. A non-positive hint falls back to NewSeries.
func NewSeriesCap(name string, dt float64, capHint int) *Series {
	if capHint <= 0 {
		return NewSeries(name, dt)
	}
	return &Series{Name: name, DT: dt, Values: make([]float64, 0, capHint)}
}

// Append adds a sample.
func (s *Series) Append(v float64) { s.Values = append(s.Values, v) }

// AppendRepeat adds k copies of v — the bulk-fill the simulator's phase
// fast-forwarding uses for metrics frozen across a skipped span.
func (s *Series) AppendRepeat(v float64, k int) {
	for i := 0; i < k; i++ {
		s.Values = append(s.Values, v)
	}
}

// AppendCycle adds k samples cycling over vals in order — the bulk-fill for
// metrics locked in a small periodic steady state (a DVFS governor limit
// cycle) across a fast-forwarded span. Empty vals is a no-op.
func (s *Series) AppendCycle(vals []float64, k int) {
	if len(vals) == 0 {
		return
	}
	if len(vals) == 1 {
		s.AppendRepeat(vals[0], k)
		return
	}
	for i := 0; i < k; i++ {
		s.Values = append(s.Values, vals[i%len(vals)])
	}
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// Duration returns the covered time span in seconds.
func (s *Series) Duration() float64 { return float64(len(s.Values)) * s.DT }

// At returns the sample covering time t (clamped to the series bounds).
func (s *Series) At(t float64) float64 {
	if len(s.Values) == 0 {
		return 0
	}
	i := int(t / s.DT)
	if i < 0 {
		i = 0
	}
	if i >= len(s.Values) {
		i = len(s.Values) - 1
	}
	return s.Values[i]
}

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Max returns the maximum value, or 0 for an empty series.
func (s *Series) Max() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum value, or 0 for an empty series.
func (s *Series) Min() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Clone returns a deep copy.
func (s *Series) Clone() *Series {
	c := &Series{Name: s.Name, DT: s.DT, Values: make([]float64, len(s.Values))}
	copy(c.Values, s.Values)
	return c
}

// Resample returns n samples spread over the series' normalized runtime
// [0,1], each the mean of the source samples it covers. It is the basis for
// comparing benchmarks of different lengths on one axis.
func (s *Series) Resample(n int) *Series {
	if n <= 0 {
		return &Series{Name: s.Name, DT: 0}
	}
	out := &Series{Name: s.Name, DT: 1 / float64(n), Values: make([]float64, n)}
	if len(s.Values) == 0 {
		return out
	}
	src := float64(len(s.Values))
	for i := 0; i < n; i++ {
		lo := int(math.Floor(float64(i) / float64(n) * src))
		hi := int(math.Ceil(float64(i+1) / float64(n) * src))
		if hi > len(s.Values) {
			hi = len(s.Values)
		}
		if lo >= hi {
			lo = hi - 1
			if lo < 0 {
				lo = 0
			}
		}
		sum := 0.0
		for j := lo; j < hi; j++ {
			sum += s.Values[j]
		}
		out.Values[i] = sum / float64(hi-lo)
	}
	return out
}

// NormalizeTo returns values mapped to [0,1] given global bounds, as the
// paper does ("the highest values recorded for each metric across all
// benchmarks serve as the normalization's upper bound").
func (s *Series) NormalizeTo(lo, hi float64) *Series {
	out := s.Clone()
	span := hi - lo
	if span <= 0 {
		for i := range out.Values {
			out.Values[i] = 0
		}
		return out
	}
	for i := range out.Values {
		v := (out.Values[i] - lo) / span
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		out.Values[i] = v
	}
	return out
}

// Region is a half-open index interval [Start, End) of samples.
type Region struct{ Start, End int }

// Frac returns the region's coverage as a fraction of n samples.
func (r Region) Frac(n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(r.End-r.Start) / float64(n)
}

// RegionsAbove returns maximal contiguous regions where the value exceeds
// the threshold (the paper's coloured >0.5 regions in Figure 2).
func (s *Series) RegionsAbove(threshold float64) []Region {
	var out []Region
	start := -1
	for i, v := range s.Values {
		if v > threshold {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			out = append(out, Region{start, i})
			start = -1
		}
	}
	if start >= 0 {
		out = append(out, Region{start, len(s.Values)})
	}
	return out
}

// FracAbove returns the fraction of samples strictly above the threshold.
func (s *Series) FracAbove(threshold float64) float64 {
	if len(s.Values) == 0 {
		return 0
	}
	n := 0
	for _, v := range s.Values {
		if v > threshold {
			n++
		}
	}
	return float64(n) / float64(len(s.Values))
}

// MeanSeries averages several equally long series sample-by-sample; it is
// used to average the paper's three runs. It returns an error when lengths
// or intervals differ.
func MeanSeries(name string, in []*Series) (*Series, error) {
	if len(in) == 0 {
		return nil, fmt.Errorf("trace: MeanSeries of nothing")
	}
	n := in[0].Len()
	dt := in[0].DT
	for _, s := range in[1:] {
		if s.Len() != n || s.DT != dt {
			return nil, fmt.Errorf("trace: MeanSeries shape mismatch: %d@%g vs %d@%g", n, dt, s.Len(), s.DT)
		}
	}
	out := &Series{Name: name, DT: dt, Values: make([]float64, n)}
	for i := 0; i < n; i++ {
		sum := 0.0
		for _, s := range in {
			sum += s.Values[i]
		}
		out.Values[i] = sum / float64(len(in))
	}
	return out, nil
}
