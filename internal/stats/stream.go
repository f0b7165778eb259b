// Streaming statistics: single-pass accumulators the simulation engine
// folds per-tick samples into, so whole-run summary statistics no longer
// require materializing every counter time series. Stream keeps the Welford
// moments (count, mean, variance) plus extrema; Quantiles is a fixed
// log-grid histogram sketch for distribution queries. Both support O(1)
// weighted insertion (AddN) — the primitive phase fast-forwarding uses to
// fold k skipped ticks of a frozen metric at once — and an exact merge, so
// per-run summaries combine into run-averaged ones deterministically.
//
// Everything here is allocation-light, map-free and math/rand-free: the
// accumulators live inside the deterministic simulation path and must obey
// the same bit-reproducibility rules as the engine (enforced by mblint's
// nondeterm and mapiterorder passes).
package stats

import "math"

// Stream is a single-pass moment accumulator over one metric's samples.
// The zero value is ready to use. Non-finite samples (corrupted counter
// readings) are excluded, matching Mean.
type Stream struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add folds one sample.
func (s *Stream) Add(v float64) {
	if !IsFinite(v) {
		return
	}
	if s.n == 0 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.n++
	d := v - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (v - s.mean)
}

// AddN folds k identical samples in O(1) via the Chan et al. parallel
// combination of (n, mean, m2) with the degenerate group (k, v, 0). It is
// numerically exact for the mean update and at least as accurate as k
// repeated Add calls for m2 (TestStreamAddNMatchesLoop pins the delta).
func (s *Stream) AddN(v float64, k int64) {
	if k <= 0 || !IsFinite(v) {
		return
	}
	if s.n == 0 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	n1 := float64(s.n)
	kn := float64(k)
	tot := n1 + kn
	d := v - s.mean
	s.mean += d * kn / tot
	s.m2 += d * d * n1 * kn / tot
	s.n += k
}

// Merge folds another stream into s (Chan's parallel-axis combination).
// Merging in a fixed order is deterministic; the result is independent of
// how samples were partitioned between the two streams only up to float
// rounding, so callers that need bit-identical results must keep the merge
// order fixed (run order, as AverageResults does).
func (s *Stream) Merge(o *Stream) {
	if o == nil || o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	n1, n2 := float64(s.n), float64(o.n)
	tot := n1 + n2
	d := o.mean - s.mean
	s.mean += d * n2 / tot
	s.m2 += o.m2 + d*d*n1*n2/tot
	s.n += o.n
}

// Count returns how many finite samples were folded.
func (s *Stream) Count() int64 { return s.n }

// Mean returns the running mean (0 when empty).
func (s *Stream) Mean() float64 { return s.mean }

// Variance returns the population variance (0 when empty).
func (s *Stream) Variance() float64 {
	if s.n == 0 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// StdDev returns the population standard deviation.
func (s *Stream) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest folded sample (0 when empty).
func (s *Stream) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest folded sample (0 when empty).
func (s *Stream) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Quantile-sketch geometry: positive magnitudes bucket by floor(log2(v) *
// quantSubBuckets), clamped into the array; the relative quantile error is
// bounded by one bucket's width, 2^(1/quantSubBuckets)-1 ≈ 4.4%.
const (
	quantSubBuckets = 16
	quantBuckets    = 2048
	quantOffset     = quantBuckets / 2
)

// Quantiles is a fixed log-grid histogram sketch over non-negative samples
// (negative samples are counted but not bucketed — simulator counters are
// non-negative). The zero value is ready to use. Unlike P², insertion cost
// does not depend on the weight, so fast-forwarded spans fold k repeated
// ticks in O(1); the grid is a plain array, so there is no map iteration
// anywhere near the deterministic path.
type Quantiles struct {
	zero    int64 // exact zeros (common: idle-phase counters)
	neg     int64 // negative samples, counted below every bucket
	n       int64
	buckets [quantBuckets]int64
}

func quantIndex(v float64) int {
	i := int(math.Floor(math.Log2(v)*quantSubBuckets)) + quantOffset
	if i < 0 {
		return 0
	}
	if i >= quantBuckets {
		return quantBuckets - 1
	}
	return i
}

// quantValue returns the geometric center of bucket i.
func quantValue(i int) float64 {
	return math.Exp2((float64(i-quantOffset) + 0.5) / quantSubBuckets)
}

// Add folds one sample.
func (q *Quantiles) Add(v float64) { q.AddN(v, 1) }

// AddN folds k identical samples in O(1).
func (q *Quantiles) AddN(v float64, k int64) {
	if k <= 0 || !IsFinite(v) {
		return
	}
	q.n += k
	switch {
	case v == 0:
		q.zero += k
	case v < 0:
		q.neg += k
	default:
		q.buckets[quantIndex(v)] += k
	}
}

// Merge folds another sketch into q.
func (q *Quantiles) Merge(o *Quantiles) {
	if o == nil {
		return
	}
	q.zero += o.zero
	q.neg += o.neg
	q.n += o.n
	for i := range q.buckets {
		q.buckets[i] += o.buckets[i]
	}
}

// Count returns how many finite samples were folded.
func (q *Quantiles) Count() int64 { return q.n }

// Quantile returns the approximate p-quantile (p in [0,1]) with relative
// error bounded by the grid (≈4.4%); 0 when the sketch is empty.
func (q *Quantiles) Quantile(p float64) float64 {
	if q.n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := int64(p * float64(q.n-1))
	// Walk the grid in value order: negatives, zeros, then the buckets.
	if rank < q.neg {
		return math.Inf(-1) // magnitude unknown; callers feed non-negative data
	}
	rank -= q.neg
	if rank < q.zero {
		return 0
	}
	rank -= q.zero
	for i := range q.buckets {
		if rank < q.buckets[i] {
			return quantValue(i)
		}
		rank -= q.buckets[i]
	}
	return quantValue(quantBuckets - 1)
}

// FracAbove returns the approximate fraction of samples strictly above x
// (x > 0); the threshold snaps to the containing grid bucket's boundary.
func (q *Quantiles) FracAbove(x float64) float64 {
	if q.n == 0 {
		return 0
	}
	if x < 0 {
		return float64(q.n-q.neg) / float64(q.n)
	}
	if x == 0 {
		return float64(q.n-q.neg-q.zero) / float64(q.n)
	}
	above := int64(0)
	for i := quantIndex(x) + 1; i < quantBuckets; i++ {
		above += q.buckets[i]
	}
	return float64(above) / float64(q.n)
}
