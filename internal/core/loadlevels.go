package core

import (
	"fmt"

	"mobilebench/internal/sim"
	"mobilebench/internal/soc"
)

// Figure 3 / Table V: CPU heterogeneity analysis. Per-cluster load is
// quantized into four levels (each covering 25% of the normalized [0,1]
// range) and the occupancy of each level over the benchmark's runtime is
// counted.

// NumLoadLevels is the number of quantization levels (4 x 25%).
const NumLoadLevels = 4

// ClusterLoadProfile is one benchmark's Figure 3 column: per CPU cluster,
// the fraction of execution time spent in each load level.
type ClusterLoadProfile struct {
	Name string
	// LevelFrac[cluster][level] is the fraction of samples of that
	// cluster's load series falling into the level.
	LevelFrac [soc.NumClusters][NumLoadLevels]float64
}

// Figure3 quantizes each cluster's load series into the four levels.
// Loads are normalized with global bounds per cluster metric across all
// benchmarks, matching the paper's normalization.
func (d *Dataset) Figure3() ([]ClusterLoadProfile, error) {
	keys := [soc.NumClusters]string{}
	for _, k := range soc.Clusters() {
		keys[k] = sim.ClusterMetric(k, "load")
	}
	var lo, hi [soc.NumClusters]float64
	for _, k := range soc.Clusters() {
		l, h, err := d.MetricBounds(keys[k])
		if err != nil {
			return nil, err
		}
		lo[k], hi[k] = l, h
	}

	var out []ClusterLoadProfile
	for _, u := range d.Units {
		p := ClusterLoadProfile{Name: u.Workload.Name}
		for _, k := range soc.Clusters() {
			s := u.Trace.Series(keys[k])
			if s == nil {
				return nil, fmt.Errorf("core: unit %s lacks metric %s", u.Workload.Name, keys[k])
			}
			n := s.Len()
			if n == 0 {
				continue
			}
			span := hi[k] - lo[k]
			for _, v := range s.Values {
				norm := 0.0
				if span > 0 {
					norm = (v - lo[k]) / span
				}
				p.LevelFrac[k][levelOf(norm)] += 1 / float64(n)
			}
		}
		out = append(out, p)
	}
	return out, nil
}

// levelOf maps a normalized load in [0,1] to its quarter level.
func levelOf(v float64) int {
	switch {
	case v < 0.25:
		return 0
	case v < 0.5:
		return 1
	case v < 0.75:
		return 2
	default:
		return 3
	}
}

// TableV averages the Figure 3 occupancy across benchmarks: the percentage
// of execution time each CPU cluster spends in each load level.
func (d *Dataset) TableV() ([soc.NumClusters][NumLoadLevels]float64, error) {
	profiles, err := d.Figure3()
	if err != nil {
		return [soc.NumClusters][NumLoadLevels]float64{}, err
	}
	var avg [soc.NumClusters][NumLoadLevels]float64
	for _, p := range profiles {
		for k := range p.LevelFrac {
			for l := range p.LevelFrac[k] {
				avg[k][l] += p.LevelFrac[k][l]
			}
		}
	}
	n := float64(len(profiles))
	if n > 0 {
		for k := range avg {
			for l := range avg[k] {
				avg[k][l] /= n
			}
		}
	}
	return avg, nil
}
