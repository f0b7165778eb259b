package main

import (
	"math"
	"sort"
	"time"
)

// Latencies is one operation class's latency sample in milliseconds. A
// failed, refused or timed-out operation stays in the sample as +Inf: it
// misses every latency limit instead of silently dropping out.
type Latencies struct{ ms []float64 }

// Add records one completed operation.
func (l *Latencies) Add(d time.Duration) { l.ms = append(l.ms, float64(d)/1e6) }

// AddFailed records one operation that never completed.
func (l *Latencies) AddFailed() { l.ms = append(l.ms, math.Inf(1)) }

// Merge appends another class's samples.
func (l *Latencies) Merge(o *Latencies) { l.ms = append(l.ms, o.ms...) }

// N is the sample count, failures included.
func (l *Latencies) N() int { return len(l.ms) }

// Quantile is one percentile of a sample together with the counts that
// qualify it: a tail percentile means little unless enough samples lie
// beyond it.
type Quantile struct {
	Value  float64 // ms; +Inf when the rank falls on a failed operation, NaN when empty
	N      int     // samples, failures included
	Beyond int     // samples strictly above Value
}

// Quantile returns the q-quantile, interpolating linearly between the two
// nearest order statistics.
func (l *Latencies) Quantile(q float64) Quantile {
	out := Quantile{N: len(l.ms), Value: math.NaN()}
	if len(l.ms) == 0 {
		return out
	}
	s := append([]float64(nil), l.ms...)
	sort.Float64s(s)
	out.Value = interpolate(s, q)
	out.Beyond = len(s) - sort.Search(len(s), func(i int) bool { return s[i] > out.Value })
	return out
}

// interpolate is the linear-interpolation quantile of a sorted sample.
func interpolate(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// medianOr0 is a sample's median in ms, or 0 for an empty sample: the
// per-layer reading of a layer the run never reached.
func medianOr0(l *Latencies) float64 {
	if l.N() == 0 {
		return 0
	}
	return l.Quantile(0.5).Value
}

// median is the interpolated median of a non-empty sample.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return interpolate(s, 0.5)
}

// msOf converts a duration to milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / 1e6 }
