// Package profiler collects named hardware-counter time series from the
// simulator, playing the role Snapdragon Profiler plays in the paper:
// a real-time view over ~190 metrics covering CPU cores, caches, branch
// prediction, the GPU, the AIE, and system memory, with the idle-OS memory
// baseline subtracted from process-specific figures.
package profiler

import (
	"fmt"
	"io"
	"iter"
	"slices"
	"strings"

	"mobilebench/internal/trace"
)

// Well-known metric names used by the analysis layer (Table IV and the
// Figure 1 aggregates).
const (
	MetricCPULoad     = "cpu.load"          // mean per-core frequency x utilization, 0..1
	MetricGPULoad     = "gpu.load"          // GPU frequency x utilization, 0..1
	MetricShadersBusy = "gpu.shaders_busy"  // fraction of time all shaders busy
	MetricGPUBusBusy  = "gpu.bus_busy"      // GPU memory-bus busy fraction
	MetricAIELoad     = "aie.load"          // AIE frequency x utilization, 0..1
	MetricUsedMem     = "mem.used_frac"     // used system memory fraction
	MetricUsedMemMB   = "mem.used_mb"       // used system memory, MB
	MetricCPUTempC    = "thermal.cpu_c"     // CPU thermal node temperature, °C
	MetricIPC         = "cpu.ipc"           // instructions per busy cycle
	MetricInstrRate   = "cpu.instr_rate"    // retired instructions per second
	MetricCacheMPKI   = "cpu.cache_mpki"    // misses across all levels per kilo-instruction
	MetricBranchMPKI  = "cpu.branch_mpki"   // branch mispredictions per kilo-instruction
	MetricStorageUtil = "storage.util"      // storage utilization 0..1
	MetricWorkloadMem = "mem.workload_frac" // baseline-corrected workload memory fraction
)

// Profiler accumulates samples during a simulation run.
type Profiler struct {
	dt      float64
	capHint int
	slots   map[string]Slot
	named   []slotSeries    // by Slot
	order   []*trace.Series // the sampled series, in first-sampled order
}

// Slot is a handle to one named metric of a Profiler, resolved once by
// Profiler.Slot so a hot loop samples without looking the name up.
type Slot int

// slotSeries is a slot's name and its series, nil until first sampled.
type slotSeries struct {
	name string
	s    *trace.Series
}

// New creates a profiler sampling at interval dt seconds. Every series
// created by Sample pre-sizes its backing array for capHint samples (the
// run's tick count), so the ~190 engine counters never regrow mid-run; a
// non-positive hint sizes nothing.
func New(dt float64, capHint int) *Profiler {
	return &Profiler{dt: dt, capHint: capHint, slots: make(map[string]Slot)}
}

// Slot returns the handle of the named metric. Resolving a name creates
// no series: a metric joins the trace, and takes its place in the metric
// order, at its first sample.
func (p *Profiler) Slot(metric string) Slot {
	sl, ok := p.slots[metric]
	if !ok {
		sl = Slot(len(p.named))
		p.slots[metric] = sl
		p.named = append(p.named, slotSeries{name: metric})
	}
	return sl
}

// Put records value v for the metric behind sl at the current tick.
func (p *Profiler) Put(sl Slot, v float64) {
	ns := &p.named[sl]
	if ns.s == nil {
		ns.s = trace.NewSeriesCap(ns.name, p.dt, p.capHint)
		p.order = append(p.order, ns.s)
	}
	ns.s.Append(v)
}

// Sample records value v for the metric at the current tick. All metrics
// sampled in a tick must be sampled every tick to stay aligned; Trace
// verifies alignment.
func (p *Profiler) Sample(metric string, v float64) { p.Put(p.Slot(metric), v) }

// All yields the live series in first-sampled order. The simulator's
// fast-forward path uses it to bulk-extend frozen metrics
// (trace.Series.AppendCycle) without going through Sample.
func (p *Profiler) All() iter.Seq[*trace.Series] { return slices.Values(p.order) }

// Trace freezes the profiler into a Trace, verifying that all series have
// the same length.
func (p *Profiler) Trace() (*Trace, error) {
	t := &Trace{DT: p.dt, Samples: -1, series: make(map[string]*trace.Series, len(p.order)),
		order: make([]string, len(p.order))}
	for i, s := range p.order {
		if l := s.Len(); t.Samples == -1 {
			t.Samples = l
		} else if l != t.Samples {
			return nil, fmt.Errorf("profiler: series %q has %d samples, want %d", s.Name, l, t.Samples)
		}
		t.series[s.Name] = s
		t.order[i] = s.Name
	}
	return t, nil
}

// Trace is an immutable collection of aligned metric series for one run.
type Trace struct {
	// DT is the sampling interval in seconds.
	DT float64
	// Samples is the common series length.
	Samples int

	series map[string]*trace.Series
	order  []string
}

// Duration returns the covered wall-clock time.
func (t *Trace) Duration() float64 { return float64(t.Samples) * t.DT }

// Series returns the named metric series, or nil when absent. A nil
// receiver has no series.
func (t *Trace) Series(name string) *trace.Series {
	if t == nil {
		return nil
	}
	return t.series[name]
}

// MustSeries returns the named series or panics; for metrics the simulator
// always emits.
func (t *Trace) MustSeries(name string) *trace.Series {
	s := t.series[name]
	if s == nil {
		panic(fmt.Sprintf("profiler: missing metric %q", name))
	}
	return s
}

// Metrics returns metric names in first-sampled order.
func (t *Trace) Metrics() []string { return append([]string(nil), t.order...) }

// NumMetrics returns how many metrics the trace carries.
func (t *Trace) NumMetrics() int { return len(t.order) }

// BuildTrace assembles a Trace from fully populated series — the restore
// path for persisted runs (internal/checkpoint). Metric order is the slice
// order, exactly as Metrics() reported it at save time, so a rebuilt trace
// is bit-identical to the one that was persisted. Series lengths are not
// required to equal samples (a crash-persisted trace may carry dropped
// tails awaiting Repair), but negative shapes and duplicate or empty
// metric names are rejected.
func BuildTrace(dt float64, samples int, series []*trace.Series) (*Trace, error) {
	if samples < 0 {
		return nil, fmt.Errorf("profiler: BuildTrace with negative sample count %d", samples)
	}
	t := &Trace{DT: dt, Samples: samples, series: make(map[string]*trace.Series, len(series))}
	for _, s := range series {
		if s == nil || s.Name == "" {
			return nil, fmt.Errorf("profiler: BuildTrace with a nil or unnamed series")
		}
		if _, dup := t.series[s.Name]; dup {
			return nil, fmt.Errorf("profiler: BuildTrace with duplicate metric %q", s.Name)
		}
		t.series[s.Name] = s
		t.order = append(t.order, s.Name)
	}
	return t, nil
}

// MeanTraces averages runs sample-by-sample (the paper averages three runs
// per benchmark). Runs may differ slightly in length due to run-to-run
// jitter; each series is resampled to the shortest run's length first.
func MeanTraces(runs []*Trace) (*Trace, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("profiler: MeanTraces of nothing")
	}
	minLen := runs[0].Samples
	for _, r := range runs[1:] {
		if r.Samples < minLen {
			minLen = r.Samples
		}
	}
	if minLen == 0 {
		return nil, fmt.Errorf("profiler: empty trace")
	}
	out := &Trace{DT: runs[0].DT, Samples: minLen, series: make(map[string]*trace.Series)}
	rs := make([]*trace.Series, 0, len(runs))
	for _, name := range runs[0].order {
		rs = rs[:0]
		for _, r := range runs {
			s := r.Series(name)
			if s == nil {
				return nil, fmt.Errorf("profiler: run missing metric %q", name)
			}
			rs = append(rs, resampleToLen(s, minLen, runs[0].DT))
		}
		m, err := trace.MeanSeries(name, rs)
		if err != nil {
			return nil, err
		}
		out.series[name] = m
		out.order = append(out.order, name)
	}
	return out, nil
}

func resampleToLen(s *trace.Series, n int, dt float64) *trace.Series {
	if s.Len() == n {
		if s.DT == dt {
			// Already the right shape: MeanSeries only reads its inputs,
			// so the run's own series can be used directly. Cloning here
			// used to copy every run's full trace once per average.
			return s
		}
		c := s.Clone()
		c.DT = dt
		return c
	}
	r := s.Resample(n)
	r.DT = dt
	return r
}

// WriteCSV writes the trace as CSV with a time column followed by one column
// per metric, in first-sampled order.
func (t *Trace) WriteCSV(w io.Writer) error {
	cols := t.Metrics()
	if _, err := fmt.Fprintf(w, "time_s,%s\n", strings.Join(cols, ",")); err != nil {
		return err
	}
	for i := 0; i < t.Samples; i++ {
		row := make([]string, 0, len(cols)+1)
		row = append(row, fmt.Sprintf("%.3f", (float64(i)+0.5)*t.DT))
		for _, c := range cols {
			row = append(row, fmt.Sprintf("%.6g", t.series[c].Values[i]))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}
