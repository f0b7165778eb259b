package cpu

import "mobilebench/internal/soc"

// quantize snaps freq to the nearest operating point at or above it (used
// when raising frequency, so the governor keeps its headroom).
func quantize(cl soc.CPUCluster, freq float64) float64 {
	steps := cl.FreqStepsHz
	if len(steps) == 0 {
		return cl.MaxFreqHz
	}
	for _, s := range steps {
		if s >= freq {
			return s
		}
	}
	return steps[len(steps)-1]
}

// quantizeDown snaps freq to the highest operating point at or below it
// (used when lowering frequency, so an idle cluster actually reaches the
// floor instead of parking one step above it).
func quantizeDown(cl soc.CPUCluster, freq float64) float64 {
	steps := cl.FreqStepsHz
	if len(steps) == 0 {
		return cl.MinFreqHz
	}
	out := steps[0]
	for _, s := range steps {
		if s <= freq {
			out = s
		}
	}
	return out
}

// Schedutil approximates the mainline Linux schedutil governor:
// next_freq = margin * max_freq * util, with hysteresis on the way down.
type Schedutil struct {
	// Margin is the headroom factor (schedutil uses 1.25).
	Margin float64
	// DownRate limits how fast frequency may fall per interval (0..1 of
	// the gap to target); models rate limiting / util decay.
	DownRate float64
}

// NewSchedutil returns a schedutil governor with kernel-default parameters.
func NewSchedutil() *Schedutil { return &Schedutil{Margin: 1.25, DownRate: 0.4} }

// Next returns the frequency for the coming interval given the
// utilization (0..1) observed over the previous interval at prevFreqHz.
func (s *Schedutil) Next(cl soc.CPUCluster, prevFreqHz, utilization float64) float64 {
	if utilization < 0 {
		utilization = 0
	}
	if utilization > 1 {
		utilization = 1
	}
	target := s.Margin * cl.MaxFreqHz * utilization
	if target < cl.MinFreqHz {
		target = cl.MinFreqHz
	}
	if target > cl.MaxFreqHz {
		target = cl.MaxFreqHz
	}
	if target < prevFreqHz {
		// Descend gradually: benchmarks bounce between phases and real
		// governors rate-limit frequency drops.
		target = prevFreqHz - s.DownRate*(prevFreqHz-target)
		return quantizeDown(cl, target)
	}
	return quantize(cl, target)
}
