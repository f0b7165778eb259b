package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports. Every workload reports
// every one; an "op" is the workload's user-facing operation: one
// CharacterizeContext + WriteReport pipeline, one job from POST /jobs to
// done, or one stream record from POST /v1/stream to its ack.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"mem_live_mb", "MB"},
	{"ok_frac", "frac"},
}

// perLayer are the metrics a traced run reports. A layer a workload never
// reaches reports 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, layer := range ledgerLayers {
		defs = append(defs, metricDef{layer + ".self_s", "s"})
	}
	return append(defs, []metricDef{
		{"runtime.gc_s", "s"},
		{"runtime.self_s", "s"},
		{"other.self_s", "s"},
		{"runtime.alloc_mb", "MB"},
		{"ledger.wall_s", "s"},
		{"ledger.cpu_s", "s"},
		{"ledger.idle_s", "s"},
		{"ledger.closure_err", "frac"},
		{"sim.run_ms_max", "ms"},
		{"par.idle_frac", "frac"},
		{"core.report_s", "s"},
		{"trace.sim_rate", "s/s"},
		{"trace.sim_rate_delta", "s/s"},
		{"server.admit_ms", "ms"},
		{"checkpoint.writefile_ms", "ms"},
		{"server.cachekey_us", "us"},
		{"dist.cache_get_us", "us"},
		{"server.cache_hit_ratio", "frac"},
		{"dist.cache_put_ms", "ms"},
		{"server.execute_characterize_ms", "ms"},
		{"server.execute_streamreport_ms", "ms"},
		{"server.queue_wait_ms", "ms"},
		{"server.coalesce_ratio", "frac"},
		{"server.shed", "count"},
		{"server.status_polls", "count"},
		{"server.status_read_ms", "ms"},
		{"server.state_read_ms", "ms"},
		{"server.changes_read_ms", "ms"},
		{"checkpoint.log_append_ms", "ms"},
		{"core.fold_append_ms", "ms"},
		{"core.fold_update_ms", "ms"},
		{"core.fold_rebuild_ms", "ms"},
		{"core.fold_warm_ms", "ms"},
		{"core.warm_diverged_frac", "frac"},
		{"cluster.warm_ratio", "frac"},
		{"cluster.shifted_cells", "count"},
		{"core.mode_append", "count"},
		{"core.mode_update", "count"},
		{"core.mode_rebuild", "count"},
		{"core.mode_unchanged", "count"},
		{"server.replay_s", "s"},
		{"trace.ingest_p50_ms", "ms"},
		{"trace.ingest_p50_delta_ms", "ms"},
	}...)
}()

// Report is one run's outcome.
type Report struct {
	Correct   bool
	Problems  []string // why Correct is false
	Attempted int
	Failed    int
	// EndToEnd and Layer hold metric values by name.
	EndToEnd map[string]float64
	Layer    map[string]float64
	// Lines are the human-readable findings printed above the result,
	// including the workload-specific figures behind the op metrics.
	Lines []string
}

func newReport() *Report {
	return &Report{Correct: true, EndToEnd: make(map[string]float64), Layer: make(map[string]float64)}
}

// fail marks the run incorrect.
func (r *Report) fail(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// note adds a human-readable finding.
func (r *Report) note(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// noteQuantiles reports a latency class's median and tail with their
// counts.
func (r *Report) noteQuantiles(name string, l *Latencies) {
	p50, p90 := l.Quantile(0.5), l.Quantile(0.9)
	r.note("%s_p50_ms %.4f ms  %s_p90_ms %.4f ms  (n=%d, %d beyond p90)", name, p50.Value, name, p90.Value, p90.N, p90.Beyond)
}

// setOps fills the op latency and throughput metrics from the ops of a
// window of wall seconds. A percentile that lands on a failed operation
// reports failCapMS, the operation deadline.
func (r *Report) setOps(ops *Latencies, window float64, failCapMS float64) {
	for _, q := range []struct {
		name string
		q    float64
	}{{"op_p50_ms", 0.5}, {"op_p90_ms", 0.9}} {
		v := ops.Quantile(q.q).Value
		if math.IsInf(v, 1) || math.IsNaN(v) {
			v = failCapMS
		}
		r.EndToEnd[q.name] = v
	}
	done := 0
	for _, v := range ops.ms {
		if !math.IsInf(v, 1) {
			done++
		}
	}
	r.EndToEnd["ops_per_s"] = float64(done) / window
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// write prints the findings and, as the last line, the result object with
// every end-to-end metric (traced=false) or every per-layer metric.
func (r *Report) write(w io.Writer, traced bool) error {
	defs, vals := endToEnd, r.EndToEnd
	if traced {
		defs, vals = perLayer, r.Layer
	}
	res := resultJSON{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]metricJSON)}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !traced {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite (%v)", d.name, v)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	for _, l := range r.Lines {
		fmt.Fprintln(w, l)
	}
	for _, p := range r.Problems {
		fmt.Fprintln(w, "INCORRECT:", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
