package core

import (
	"fmt"

	"mobilebench/internal/profiler"
	"mobilebench/internal/trace"
)

// Figure 2 / Table IV: temporal behaviour of six load metrics across the
// normalized runtime of every benchmark.

// TableIVMetric describes one of the six temporal metrics.
type TableIVMetric struct {
	// Key is the profiler metric name.
	Key string
	// Label is the paper's display name.
	Label string
	// Explanation matches Table IV.
	Explanation string
}

// TableIV lists the six temporal metrics in paper order.
func TableIV() []TableIVMetric {
	return []TableIVMetric{
		{profiler.MetricCPULoad, "CPU Load", "Load on CPU cores (frequency x utilization)"},
		{profiler.MetricGPULoad, "GPU Load", "Load on GPU (frequency x utilization)"},
		{profiler.MetricShadersBusy, "% Shaders Busy", "Percentage of time all shader cores are busy"},
		{profiler.MetricGPUBusBusy, "% GPU Bus Busy", "Percentage of time the GPU's bus to system memory is busy"},
		{profiler.MetricAIELoad, "AIE Load", "Load on AIE (frequency x utilization)"},
		{profiler.MetricUsedMem, "Used Memory", "Percentage of total system memory used"},
	}
}

// TemporalProfile is one benchmark's Figure 2 panel: the six metrics
// resampled onto a normalized [0,1] time axis and normalized into [0,1]
// value range using global bounds across all benchmarks.
type TemporalProfile struct {
	Name string
	// Series maps the Table IV metric key to its normalized series.
	Series map[string]*trace.Series
	// Mean maps the metric key to its run-average normalized value (the
	// dashed lines of Figure 2).
	Mean map[string]float64
	// HighRegions maps the metric key to the regions where the normalized
	// value exceeds 0.5 (the coloured regions of Figure 2).
	HighRegions map[string][]trace.Region
}

// Figure2 computes the temporal profiles for all units. samples sets the
// normalized-time resolution (e.g. 200). Normalization bounds are global:
// the highest value of each metric across all benchmarks is the upper
// bound, the lowest the lower bound, exactly as in the paper.
func (d *Dataset) Figure2(samples int) ([]TemporalProfile, error) {
	if samples < 2 {
		return nil, fmt.Errorf("core: Figure2 needs at least 2 samples")
	}
	metrics := TableIV()

	// Global bounds per metric.
	lo := make(map[string]float64)
	hi := make(map[string]float64)
	for _, m := range metrics {
		first := true
		for _, u := range d.Units {
			s := u.Trace.Series(m.Key)
			if s == nil {
				return nil, fmt.Errorf("core: unit %s lacks metric %s", u.Workload.Name, m.Key)
			}
			if first {
				lo[m.Key], hi[m.Key] = s.Min(), s.Max()
				first = false
				continue
			}
			if v := s.Min(); v < lo[m.Key] {
				lo[m.Key] = v
			}
			if v := s.Max(); v > hi[m.Key] {
				hi[m.Key] = v
			}
		}
	}

	var out []TemporalProfile
	for _, u := range d.Units {
		p := TemporalProfile{
			Name:        u.Workload.Name,
			Series:      make(map[string]*trace.Series),
			Mean:        make(map[string]float64),
			HighRegions: make(map[string][]trace.Region),
		}
		for _, m := range metrics {
			s := u.Trace.Series(m.Key).
				NormalizeTo(lo[m.Key], hi[m.Key]).
				Resample(samples)
			p.Series[m.Key] = s
			p.Mean[m.Key] = s.Mean()
			p.HighRegions[m.Key] = s.RegionsAbove(0.5)
		}
		out = append(out, p)
	}
	return out, nil
}

// MetricBounds returns the global normalization bounds the Figure 2
// normalization would use for the given profiler metric.
func (d *Dataset) MetricBounds(key string) (lo, hi float64, err error) {
	first := true
	for _, u := range d.Units {
		s := u.Trace.Series(key)
		if s == nil {
			return 0, 0, fmt.Errorf("core: unit %s lacks metric %s", u.Workload.Name, key)
		}
		if first {
			lo, hi = s.Min(), s.Max()
			first = false
			continue
		}
		if v := s.Min(); v < lo {
			lo = v
		}
		if v := s.Max(); v > hi {
			hi = v
		}
	}
	return lo, hi, nil
}
