// Package sim is the tick-based SoC simulation engine.
//
// The engine executes a workload (a phase timeline) against the platform
// models. Each tick is a fixed sequence of per-layer stages (tickState):
// schedule places the phase's thread demands with the EAS scheduler;
// cpuClusters lets each schedutil governor pick a frequency, drives sampled
// memory and branch streams through the cache hierarchy and predictor and
// turns the miss profiles into IPC; gpuSLC, aieEngine and memStorage step
// the GPU (and its SLC pollution), AIE and memory/storage timing models;
// powerThermal steps power and thermal; sampleSystem emits the system
// counters into the profiler. Cross-component couplings the paper
// highlights are explicit: GPU bus pressure inflates CPU memory stall time
// (low IPC in graphics benchmarks), unsupported codecs bounce work from the
// AIE back to the CPU, and storage IO burns CPU submission time.
//
// A run is a pure function of (configuration, workload, run index): it
// reads no clock and knows nothing of retries. Measurement faults are
// injected around it, at the attempt boundary in internal/core.
package sim

import (
	"context"
	"fmt"
	"io"
	"sync"

	"mobilebench/internal/gpu"
	"mobilebench/internal/profiler"
	"mobilebench/internal/soc"
	"mobilebench/internal/workload"
)

// Config parameterizes the engine. Every run keeps its full per-tick
// counter trace (Result.Trace); no option trades it away. The tick length
// and the sampling budgets are constants (tickSec, cacheSamples,
// branchSamples), not options.
type Config struct {
	// Platform is the hardware description; nil selects the Snapdragon
	// 888 HDK.
	Platform *soc.Platform
	// Seed is the root seed; every (workload, run) pair derives an
	// independent stream from it.
	Seed uint64
	// FastForward enables phase fast-forwarding: once a phase reaches
	// steady state (settled DVFS, converged miss profiles, decayed GPU/AIE
	// transients) the remaining ticks are executed analytically instead of
	// one by one, with the RNG streams advanced in stride so later phases
	// see the exact noise sequence. Off (the default) keeps the exact,
	// byte-identical path; on, IPC reads low on every unit and cache MPKI
	// mostly high, within TestFastForwardDifferential's tolerances.
	FastForward bool
	// Deprecated: ignored; every run keeps its full trace.
	TraceMode TraceMode
	// Timing supplies the memory/storage timing backend. nil (the default)
	// selects the in-process analytic models, bit-identical to the engine
	// before the seam existed; internal/cosim provides a supervised
	// external-process backend.
	Timing TimingProvider
}

// TraceMode is the type of the deprecated Config.TraceMode.
//
// Deprecated: ignored; every run keeps its full trace.
type TraceMode int

const (
	// Deprecated: ignored; every run keeps its full trace.
	TraceFull TraceMode = iota
	// Deprecated: ignored; every run keeps its full trace.
	TraceAuto
)

// Sampling and noise constants every run uses. Config.WriteCanonical writes
// their values into every collection's identity.
const (
	// tickSec is the simulation step and profiler sampling interval. It
	// reaches the tick only through the typed tickState.dt: Go folds
	// untyped constant arithmetic exactly (3*tickSec is 0.3), where the
	// run computes in float64 (0.30000000000000004).
	tickSec = 0.1
	// cacheSamples is how many memory accesses are sampled per cluster per
	// miss-profile refresh.
	cacheSamples = 1500
	// branchSamples is how many branches are sampled per cluster per
	// refresh.
	branchSamples = 2000
	// refreshTicks is how often (in ticks) the sampled miss profiles are
	// refreshed within a phase; profiles are always refreshed on phase
	// change.
	refreshTicks = 5
	// runtimeJitterRel is the relative sigma of per-run duration jitter.
	runtimeJitterRel = 0.01
	// noiseRel is the relative sigma of per-tick demand noise.
	noiseRel = 0.03
)

// Resolve returns c with its defaults filled in (the Snapdragon 888 HDK,
// seed 888) and its platform validated: the configuration New builds an
// engine from, and the one WriteCanonical renders.
func (c Config) Resolve() (Config, error) {
	if c.Platform == nil {
		c.Platform = soc.Snapdragon888HDK()
	}
	if c.Seed == 0 {
		c.Seed = 888
	}
	if err := c.Platform.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// WriteCanonical writes the resolved c's segment of a collection's
// identity (the checkpoint fingerprint's pre-image in internal/core) to
// w: equal segments mean byte-identical runs.
func (c Config) WriteCanonical(w io.Writer) {
	// gov/throttle are the bytes of two knobs that are gone: the engine
	// simulates one machine, schedutil and never throttling, and keeps
	// writing them so every fingerprint already on disk still verifies.
	fmt.Fprintf(w, "|seed=%d|tick=%v|cache=%d|branch=%d|refresh=%d|rjit=%v|noise=%v|gov=\"\"|throttle=false",
		c.Seed, tickSec, cacheSamples, branchSamples, refreshTicks, runtimeJitterRel, noiseRel)
	// Appended only when non-default so every fingerprint minted before
	// these options existed still verifies.
	if c.FastForward {
		_, _ = io.WriteString(w, "|ff=true")
	}
	// A timing backend joins only when its replies can differ from the
	// in-process models (Fingerprint() != ""): an exact backend's runs hold
	// the same bytes, a queued-DRAM backend's never resume an in-process
	// collection.
	if c.Timing != nil {
		_, _ = io.WriteString(w, TimingSegment(c.Timing.Fingerprint()))
	}
	// The platform digest covers every cluster/GPU/AIE/memory parameter;
	// %+v renders structs field by field and maps in sorted key order, so
	// the rendering is deterministic for a given binary.
	fmt.Fprintf(w, "|plat=%+v", c.Platform)
}

// TimingSegment renders a timing backend's fingerprint as the identity
// segment WriteCanonical appends for it, and the result cache's keys carry
// for the serving process's backend: "" for "" (the in-process models, or
// an exact external backend), else |timing="<fingerprint>".
func TimingSegment(fingerprint string) string {
	if fingerprint == "" {
		return ""
	}
	return fmt.Sprintf("|timing=%q", fingerprint)
}

// Engine executes workloads.
//
// An Engine is safe for concurrent use: every Run acquires its mutable
// model state (caches, predictors, scheduler, power/thermal/GPU/AIE and
// timing models) exclusively from the engine's model pool and builds its
// profiler and RNG streams afresh, sharing only the immutable
// configuration, platform description and precomputed metric name tables.
// Each (workload, run) pair derives an independent random stream from the
// root seed, so concurrent runs produce bit-identical results to
// sequential ones. Each exact run uses one extra goroutine, which steps
// its GPU model ahead of the tick loop (see gpuAhead) and has returned
// before the run does.
type Engine struct {
	cfg  Config
	plat *soc.Platform
	// names holds every per-cluster and per-core counter name the tick
	// loop emits, formatted once at construction. The tick loop samples
	// ~190 metrics per tick; formatting those names per sample used to be
	// the pipeline's single largest allocation source.
	names [soc.NumClusters]clusterMetricNames

	// free pools runModels across runs: cache tag/valid/LRU arrays and
	// predictor tables dominate per-run allocation after the name tables,
	// and a flushed model is behaviourally identical to a fresh one (see
	// runModels.reset), so reuse cannot change results. The pool grows to
	// the peak number of concurrent runs and never shrinks.
	mu   sync.Mutex
	free []*runModels
}

// acquireModels pops a pooled model set (resetting it) or builds one.
func (e *Engine) acquireModels() (*runModels, error) {
	e.mu.Lock()
	if n := len(e.free); n > 0 {
		m := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.mu.Unlock()
		return m, m.reset()
	}
	e.mu.Unlock()
	m, err := e.newRunModels()
	if err != nil {
		return nil, err
	}
	return m, m.reset()
}

func (e *Engine) releaseModels(m *runModels) {
	e.mu.Lock()
	e.free = append(e.free, m)
	e.mu.Unlock()
}

// clusterMetricNames caches one cluster's counter names.
type clusterMetricNames struct {
	ipc, cacheMPKI, branchMPKI        string
	util, freqMHz, load               string
	activeCores, overflow, topOPPFrac string
	level                             [4]string // l1d/l2/l3/slc _miss_per_instr
	core                              []coreMetricNames
}

// coreMetricNames caches one core's counter names.
type coreMetricNames struct {
	load, util, freqMHz, ipc, cacheMPKI, branchMPKI string
	level                                           [4]string
}

var cacheLevelSlugs = [4]string{"l1d", "l2", "l3", "slc"}

func buildMetricNames(plat *soc.Platform) [soc.NumClusters]clusterMetricNames {
	var names [soc.NumClusters]clusterMetricNames
	for _, k := range soc.Clusters() {
		n := &names[k]
		n.ipc = ClusterMetric(k, "ipc")
		n.cacheMPKI = ClusterMetric(k, "cache_mpki")
		n.branchMPKI = ClusterMetric(k, "branch_mpki")
		n.util = ClusterMetric(k, "util")
		n.freqMHz = ClusterMetric(k, "freq_mhz")
		n.load = ClusterMetric(k, "load")
		n.activeCores = ClusterMetric(k, "active_cores")
		n.overflow = ClusterMetric(k, "overflow")
		n.topOPPFrac = ClusterMetric(k, "top_opp_frac")
		for i, lvl := range cacheLevelSlugs {
			n.level[i] = ClusterMetric(k, lvl+"_miss_per_instr")
		}
		n.core = make([]coreMetricNames, plat.Clusters[k].NumCores)
		for c := range n.core {
			cn := &n.core[c]
			cn.load = coreMetric(k, c, "load")
			cn.util = coreMetric(k, c, "util")
			cn.freqMHz = coreMetric(k, c, "freq_mhz")
			cn.ipc = coreMetric(k, c, "ipc")
			cn.cacheMPKI = coreMetric(k, c, "cache_mpki")
			cn.branchMPKI = coreMetric(k, c, "branch_mpki")
			for i, lvl := range cacheLevelSlugs {
				cn.level[i] = coreMetric(k, c, lvl+"_miss_per_instr")
			}
		}
	}
	return names
}

// New creates an engine from the resolved cfg (see Resolve). A zero
// Config selects defaults.
func New(cfg Config) (*Engine, error) {
	cfg, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, plat: cfg.Platform, names: buildMetricNames(cfg.Platform)}
	// Seed the pool with one model set so a sequential caller's first Run
	// pays no model construction either.
	m, err := e.newRunModels()
	if err != nil {
		return nil, err
	}
	e.free = append(e.free, m)
	return e, nil
}

// MustNew is New with a panic on error.
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Platform returns the simulated platform.
func (e *Engine) Platform() *soc.Platform { return e.plat }

// Aggregates are whole-run summary metrics (the Figure 1 quantities plus
// the Table IV load averages used for clustering and subsetting). A run
// reads them off its finished trace: the averages are series means, the
// peaks series maxima, and the counters the run's final totals. Fields
// lists every number in declaration order; code that handles all of them
// (averaging, checkpoints, fault skew) iterates that list.
type Aggregates struct {
	Name       string
	RuntimeSec float64
	// InstrCount is the dynamic instruction count (process-scoped).
	InstrCount float64
	// IPC is instructions per busy cycle, weighted over the run.
	IPC float64
	// CacheMPKI counts misses across all cache levels per kilo-instruction.
	CacheMPKI float64
	// BranchMPKI counts mispredictions per kilo-instruction.
	BranchMPKI float64

	AvgCPULoad     float64
	AvgGPULoad     float64
	AvgShadersBusy float64
	AvgGPUBusBusy  float64
	AvgAIELoad     float64
	AvgUsedMemFrac float64
	AvgUsedMemMB   float64
	PeakUsedMemMB  float64
	// ClusterLoad is the mean load per CPU cluster (Little, Mid, Big).
	ClusterLoad [soc.NumClusters]float64

	// AvgPowerW and EnergyJ come from the power model — the repository's
	// beyond-the-paper extension (the paper lists power as a limitation).
	AvgPowerW float64
	EnergyJ   float64
	// PeakCPUTempC is the hottest CPU-node reading of the run.
	PeakCPUTempC float64
}

// Fields returns a pointer to every float64 of a, array elements included,
// in declaration order. That order is also the checkpoint wire order, so
// adding, removing or reordering a field requires a checkpoint.Version
// bump.
func (a *Aggregates) Fields() []*float64 {
	return []*float64{
		&a.RuntimeSec, &a.InstrCount, &a.IPC, &a.CacheMPKI, &a.BranchMPKI,
		&a.AvgCPULoad, &a.AvgGPULoad, &a.AvgShadersBusy, &a.AvgGPUBusBusy,
		&a.AvgAIELoad, &a.AvgUsedMemFrac, &a.AvgUsedMemMB, &a.PeakUsedMemMB,
		&a.ClusterLoad[0], &a.ClusterLoad[1], &a.ClusterLoad[2],
		&a.AvgPowerW, &a.EnergyJ, &a.PeakCPUTempC,
	}
}

// isPeak reports whether p points at one of a's two run maxima, which
// averaging across runs takes the maximum of instead of the mean.
func (a *Aggregates) isPeak(p *float64) bool {
	return p == &a.PeakUsedMemMB || p == &a.PeakCPUTempC
}

// Result is one run of one workload.
type Result struct {
	Workload string
	// Trace is the run's full per-tick counter time series, one sample per
	// tick for every counter the engine emits.
	Trace *profiler.Trace
	Agg   Aggregates
	// TimingNotes and TimingDegraded report the timing backend's health
	// over this run (restarts, circuit-break degradation to the in-process
	// model), as TimingModel.TimingReport returns them. They describe
	// the measuring process, not the measurement: checkpoints do not
	// persist them, so restored runs carry none.
	TimingNotes    []string
	TimingDegraded bool
}

// Run executes one run of the workload. run indexes the repetition (the
// paper runs each benchmark three times); distinct runs get independent
// random streams and jitter.
func (e *Engine) Run(w workload.Workload, run int) (*Result, error) {
	return e.RunContext(context.Background(), w, run)
}

// ctxCheckTicks is how often (in ticks) RunContext polls for cancellation.
const ctxCheckTicks = 64

// RunContext is Run with cancellation: the context is polled every
// ctxCheckTicks simulation ticks (and around every fast-forward jump), so a
// cancelled run aborts within a few microseconds instead of completing the
// workload.
func (e *Engine) RunContext(ctx context.Context, w workload.Workload, run int) (*Result, error) {
	// Cache hierarchies, predictors, scheduler and auxiliary models come
	// from the engine's model pool; this run holds them exclusively until
	// it returns.
	models, err := e.acquireModels()
	if err != nil {
		return nil, err
	}
	defer e.releaseModels(models)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	st := e.newTickState(models, w, run)
	if e.cfg.FastForward {
		st.ff = newFFState()
	} else {
		// From here on only the helper touches the GPU model; the deferred
		// halt joins it before releaseModels hands the models to another run.
		gpuModel, jw, dt := models.gpuM, st.jw, st.dt
		st.ahead = startGPUAhead(ctx, models.gpuBuf, st.ticks, func(tick int) gpu.Result {
			return gpuModel.Step(jw.Phases[jw.PhaseIndex((float64(tick)+0.5)*dt)].GPU, dt)
		})
		defer st.ahead.halt()
	}
	for tick := 0; tick < st.ticks; tick++ {
		if tick%ctxCheckTicks == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		st.schedule(tick)
		st.cpuClusters()
		if err := st.gpuSLC(); err != nil {
			return nil, err
		}
		st.aieEngine()
		if err := st.memStorage(); err != nil {
			return nil, err
		}
		st.powerThermal(&st.in.powerIn)
		st.sampleSystem()
		if st.ff != nil {
			k, err := st.fastForward(ctx)
			if err != nil {
				return nil, err
			}
			tick += k
		}
	}
	return st.readOff()
}

// AverageResults merges per-run results (ordered by run index) into the
// run-averaged result: traces are averaged sample-wise, and each aggregate
// field is summed in run order and scaled by 1/n, except the two peaks,
// which keep the run maximum. The order is fixed so that parallel
// collection paths reproduce the sequential result exactly.
func AverageResults(name string, results []*Result) (*Result, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("sim: no results to average for %s", name)
	}
	for i, r := range results {
		if r == nil || r.Trace == nil {
			return nil, fmt.Errorf("sim: run %d result for %s is missing or has no trace", i, name)
		}
	}
	traces := make([]*profiler.Trace, len(results))
	for i, r := range results {
		traces[i] = r.Trace
	}
	mean, err := profiler.MeanTraces(traces)
	if err != nil {
		return nil, err
	}
	agg := results[0].Agg
	fields := agg.Fields()
	for _, r := range results[1:] {
		for i, p := range r.Agg.Fields() {
			switch {
			case !agg.isPeak(fields[i]):
				*fields[i] += *p
			case *p > *fields[i]:
				*fields[i] = *p
			}
		}
	}
	f := 1 / float64(len(results))
	for _, p := range fields {
		if !agg.isPeak(p) {
			*p *= f
		}
	}
	agg.Name = name
	return &Result{Workload: name, Trace: mean, Agg: agg}, nil
}

// ClusterMetric returns the trace name of a per-cluster counter, such as
// ClusterMetric(soc.Little, "load") = "cpu.little.load".
func ClusterMetric(k soc.ClusterKind, name string) string {
	return fmt.Sprintf("cpu.%s.%s", clusterSlug(k), name)
}

func coreMetric(k soc.ClusterKind, core int, name string) string {
	return fmt.Sprintf("cpu.%s.core%d.%s", clusterSlug(k), core, name)
}

func clusterSlug(k soc.ClusterKind) string {
	switch k {
	case soc.Little:
		return "little"
	case soc.Mid:
		return "mid"
	case soc.Big:
		return "big"
	default:
		return "unknown"
	}
}

func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// frameTimeMS converts a frame rate to per-frame milliseconds (0 when idle).
func frameTimeMS(fps float64) float64 {
	if fps <= 0 {
		return 0
	}
	return 1000 / fps
}
