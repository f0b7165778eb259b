// Package core is the paper's primary contribution: the workload
// characterization pipeline. It runs every benchmark on the simulated
// platform (three runs averaged, like the paper's methodology), derives the
// Figure 1 aggregate metrics and Table III correlations, the Figure 2
// temporal profiles, the Figure 3 / Table V CPU-heterogeneity analysis, the
// Figure 4-6 similarity analysis, the Table VI / Figure 7 subsetting
// analysis, and the numbered observations of Section V.
package core

import (
	"context"
	"errors"
	"fmt"

	"mobilebench/internal/fault"
	"mobilebench/internal/par"
	"mobilebench/internal/profiler"
	"mobilebench/internal/sim"
	"mobilebench/internal/workload"
)

// Options configures dataset collection.
type Options struct {
	// Sim configures the engine; the zero value selects defaults
	// (Snapdragon 888 HDK).
	Sim sim.Config
	// Runs is the number of runs averaged per benchmark (default 3, as in
	// the paper).
	Runs int
	// Units overrides the benchmark list (default: the 18 analysis units).
	Units []workload.Workload
	// Workers bounds the goroutines simulating (unit, run) pairs and the
	// downstream figure sweeps: 0 selects one per CPU, 1 forces the
	// sequential path (negative values are rejected by Validate). Any
	// value produces a bit-identical Dataset — every pair owns an
	// independent random stream and results are merged in deterministic
	// (unit, run) order.
	Workers int
	// Fault, when non-nil, injects deterministic measurement faults
	// (crashes, aborts, hangs, panics, sample corruption, skew) for chaos
	// testing. Each attempt's plan is keyed by (unit, run, attempt) and
	// applied around a clean simulation, so injected chaos is reproducible
	// for any worker count and never changes what a completed attempt
	// simulated. nil (the default) injects nothing.
	Fault *fault.Injector
	// Resilience configures the self-healing collection path: retries
	// with deterministic backoff, per-run timeouts, MAD-based outlier
	// re-runs, trace repair and MinRuns degradation. The zero value keeps
	// the strict historical behaviour (one attempt, every run required).
	Resilience Resilience
	// Checkpoint, when non-empty, names a record log: every completed
	// (unit, run) is appended there as one record and fsynced, never
	// rewritten, so a killed process loses at most the pairs it was
	// simulating. The file is left in place after a successful collection.
	Checkpoint string
	// Resume restores completed (unit, run) pairs from the Checkpoint
	// log before collecting, re-running only the remainder, and appends
	// to the same log; the resulting Dataset is bit-identical to an
	// uninterrupted collection. A missing log is a fresh start; a
	// corrupt, version-skewed or stale (options-mismatched) log fails
	// with a typed error from internal/checkpoint instead of silently
	// poisoning figures.
	Resume bool
}

// runCount is the number of runs a collection averages per unit: Runs,
// or 3 when unset.
func (o Options) runCount() int {
	if o.Runs <= 0 {
		return 3
	}
	return o.Runs
}

// CollectUnits returns the units a collection with these options
// simulates: Units, or the 18 analysis units when Units is nil.
func (o Options) CollectUnits() []workload.Workload {
	if o.Units == nil {
		return workload.AnalysisUnits()
	}
	return o.Units
}

// Unit is one characterized benchmark.
type Unit struct {
	Workload workload.Workload
	// Agg holds the run-averaged aggregate metrics.
	Agg sim.Aggregates
	// Trace holds the run-averaged counter time series.
	Trace *profiler.Trace
	// Target is the calibration record (zero value if unknown).
	Target workload.Target
}

// Dataset is the characterization corpus all analyses consume.
type Dataset struct {
	Units []Unit
	// Runs is how many runs were averaged per unit.
	Runs int
	// Workers is the parallelism Collect used; figure sweeps reuse it
	// (<= 0 means one worker per CPU).
	Workers int
	// Provenance records, unit by unit (in Units order), how collection
	// went: attempts, retries, outlier re-runs, repaired samples and
	// dropped runs. Empty on hand-built datasets.
	Provenance []UnitProvenance
}

// ProvenanceOf returns the named unit's collection record; ok is false on
// hand-built datasets or unknown names.
func (d *Dataset) ProvenanceOf(name string) (UnitProvenance, bool) {
	for _, p := range d.Provenance {
		if p.Unit == name {
			return p, true
		}
	}
	return UnitProvenance{}, false
}

// Degraded reports whether any unit's result fell short of a full set of
// clean runs (dropped runs or in-place trace repairs).
func (d *Dataset) Degraded() bool {
	for _, p := range d.Provenance {
		if p.Degraded() {
			return true
		}
	}
	return false
}

// Collect runs every unit through the simulator and assembles the dataset.
func Collect(opts Options) (*Dataset, error) {
	return CollectContext(context.Background(), opts)
}

// CollectContext is Collect with cancellation and self-healing. All
// units x runs simulations fan out over the Options.Workers pool as
// independent jobs, each protected by the Options.Resilience policy
// (retries with deterministic backoff, per-attempt timeouts, trace
// validation with repair as a last resort); after the fan-out, each
// unit's run set is screened for statistical outliers (re-running them)
// and averaged in (unit, run) order, so the Dataset is identical for any
// worker count. Whenever every faulted run recovers through a clean
// retry, the Dataset is bit-identical to a fault-free collection; any
// shortfall (dropped runs, repaired traces) is recorded in
// Dataset.Provenance.
//
// With the zero Resilience policy a permanently failed run fails the
// collection: sibling jobs still complete, then every failure is
// aggregated into a *CollectError (set Resilience.FailFast to abort on
// the first failure instead).
func CollectContext(ctx context.Context, opts Options) (*Dataset, error) {
	c, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	eng, err := sim.New(c.sim)
	if err != nil {
		return nil, err
	}
	ds := &Dataset{Runs: c.runs, Workers: opts.Workers}

	var ckpt *collectCheckpoint
	if opts.Checkpoint != "" {
		if ckpt, err = openCollectCheckpoint(opts.Checkpoint, opts.Resume, c.fingerprint()); err != nil {
			return nil, err
		}
		defer ckpt.close()
	}

	// One job per (unit, run) pair rather than per unit, handed out
	// unit-major, so a unit's runs can go to different workers. Job costs
	// are far from uniform: one exact GFXBench High run is about a third of
	// a one-run collection, so with Runs: 1 that single job bounds the tail
	// whatever the worker count.
	states := make([][]*runState, len(c.units))
	for i := range states {
		states[i] = make([]*runState, c.runs)
		for r := range states[i] {
			states[i][r] = &runState{prov: RunProvenance{Run: r}}
		}
	}
	err = par.ForEach(ctx, opts.Workers, len(c.units)*c.runs, func(ctx context.Context, j int) error {
		ui, r := j/c.runs, j%c.runs
		st := states[ui][r]
		if ckpt.restore(c.units[ui].Name, r, st) {
			return nil
		}
		if err := c.collectRun(ctx, eng, c.units[ui], r, st); err != nil {
			return err
		}
		return ckpt.record(c.units[ui].Name, r, st)
	})
	if err != nil {
		return nil, err
	}
	var failures []*RunError
	for i, w := range c.units {
		res, prov, err := c.assembleUnit(ctx, eng, w, states[i])
		if err != nil {
			var ce *CollectError
			if errors.As(err, &ce) {
				failures = append(failures, ce.Runs...)
				continue
			}
			return nil, err
		}
		t, _ := workload.TargetFor(w.Name)
		ds.Units = append(ds.Units, Unit{Workload: w, Agg: res.Agg, Trace: res.Trace, Target: t})
		ds.Provenance = append(ds.Provenance, prov)
	}
	if len(failures) > 0 {
		return nil, &CollectError{Runs: failures}
	}
	return ds, nil
}

// Names returns unit names in dataset order.
func (d *Dataset) Names() []string {
	out := make([]string, len(d.Units))
	for i, u := range d.Units {
		out[i] = u.Workload.Name
	}
	return out
}

// Unit returns the named unit. A dataset holds a few dozen units at most,
// so a scan costs nothing next to the analyses that call it.
func (d *Dataset) Unit(name string) (Unit, error) {
	for _, u := range d.Units {
		if u.Workload.Name == name {
			return u, nil
		}
	}
	return Unit{}, fmt.Errorf("core: dataset has no unit %q", name)
}

// TotalRuntimeSec sums the unit runtimes (the "Original Set" runtime of
// Table VI).
func (d *Dataset) TotalRuntimeSec() float64 {
	total := 0.0
	for _, u := range d.Units {
		total += u.Agg.RuntimeSec
	}
	return total
}

// FeatureNames lists the per-benchmark metrics used as the clustering and
// subsetting feature vector ("a vector containing the values of all
// performance metrics of each benchmark"). Intensive metrics only: the two
// extensive quantities (dynamic instruction count, runtime) measure how
// *long* a benchmark is rather than how it behaves, and including them
// would make GFXBench High — nineteen concatenated scenes — an artificial
// outlier.
func FeatureNames() []string {
	return []string{
		"ipc",
		"cache_mpki",
		"branch_mpki",
		"cpu_load",
		"gpu_load",
		"shaders_busy",
		"gpu_bus_busy",
		"aie_load",
		"used_mem_frac",
		"storage_util",
	}
}

// FeatureVector returns the unit's raw (unnormalized) feature vector in
// FeatureNames order.
func (u Unit) FeatureVector() []float64 {
	storage := 0.0
	if s := u.Trace.Series(profiler.MetricStorageUtil); s != nil {
		storage = s.Mean()
	}
	a := u.Agg
	return []float64{
		a.IPC,
		a.CacheMPKI,
		a.BranchMPKI,
		a.AvgCPULoad,
		a.AvgGPULoad,
		a.AvgShadersBusy,
		a.AvgGPUBusBusy,
		a.AvgAIELoad,
		a.AvgUsedMemFrac,
		storage,
	}
}

// FeatureMatrix returns raw feature vectors for all units, one row per
// benchmark, in dataset order.
func (d *Dataset) FeatureMatrix() [][]float64 {
	out := make([][]float64, len(d.Units))
	for i, u := range d.Units {
		out[i] = u.FeatureVector()
	}
	return out
}
