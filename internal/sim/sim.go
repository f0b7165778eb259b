// Package sim is the tick-based SoC simulation engine.
//
// The engine executes a workload (a phase timeline) against the platform
// models: each tick it places the phase's thread demands with the EAS
// scheduler, lets the DVFS governors pick cluster frequencies, drives
// sampled memory and branch streams through the cache hierarchy and branch
// predictor to obtain miss profiles, converts those into achieved IPC with
// the CPU performance model, steps the GPU, AIE, memory and storage models,
// and emits every counter into the profiler. Cross-component couplings the
// paper highlights are explicit: GPU bus pressure inflates CPU memory stall
// time (low IPC in graphics benchmarks), unsupported codecs bounce work from
// the AIE back to the CPU, and storage IO burns CPU submission time.
package sim

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mobilebench/internal/aie"
	"mobilebench/internal/branch"
	"mobilebench/internal/cache"
	"mobilebench/internal/cpu"
	"mobilebench/internal/fault"
	"mobilebench/internal/gpu"
	"mobilebench/internal/mem"
	"mobilebench/internal/power"
	"mobilebench/internal/profiler"
	"mobilebench/internal/sched"
	"mobilebench/internal/soc"
	"mobilebench/internal/thermal"
	"mobilebench/internal/workload"
	"mobilebench/internal/xrand"
)

// Config parameterizes the engine.
type Config struct {
	// Platform is the hardware description; nil selects the Snapdragon
	// 888 HDK.
	Platform *soc.Platform
	// TickSec is the simulation step and profiler sampling interval.
	TickSec float64
	// CacheSamples is how many memory accesses are sampled per cluster per
	// miss-profile refresh.
	CacheSamples int
	// Seed is the root seed; every (workload, run) pair derives an
	// independent stream from it.
	Seed uint64
	// EnableThermalThrottle couples the thermal model back into DVFS:
	// when a node trips, its frequency is capped until it cools. Off by
	// default — the paper's development board (no battery, no casing)
	// did not throttle, and the calibration assumes it does not.
	EnableThermalThrottle bool
	// Governor selects the CPU DVFS governor: "schedutil" (default),
	// "performance" or "powersave". Useful for governor ablation studies;
	// the calibration assumes schedutil.
	Governor string
	// Fault, when non-nil, injects deterministic measurement faults
	// (crashes, hangs, aborts, panics, sample corruption) into runs for
	// chaos testing. Decisions are keyed by (workload, run, attempt) —
	// the attempt number travels in the run's context via
	// fault.WithAttempt — so injected chaos is reproducible for any
	// worker count. nil (the default) injects nothing.
	Fault *fault.Injector
	// FastForward enables phase fast-forwarding: once a phase reaches
	// steady state (settled DVFS, converged miss profiles, decayed GPU/AIE
	// transients) the remaining ticks are executed analytically instead of
	// one by one, with the RNG streams advanced in stride so later phases
	// see the exact noise sequence. Off (the default) keeps the exact,
	// byte-identical path; on, results drift within the tolerances pinned
	// by the differential suite (TestFastForwardDifferential). Incompatible
	// with EnableThermalThrottle, whose feedback loop never freezes.
	FastForward bool
	// TraceMode selects what a run materializes: TraceFull (default) the
	// complete per-tick counter trace, TraceStreamed only streaming summary
	// statistics (Result.Trace is nil), TraceAuto the analysis layer's
	// metric subset as a trace plus summaries for everything.
	TraceMode TraceMode
	// Timing supplies the memory/storage timing backend. nil (the default)
	// selects the in-process analytic models, bit-identical to the engine
	// before the seam existed; internal/cosim provides a supervised
	// external-process backend.
	Timing TimingProvider
}

// TraceMode selects how much of the per-tick counter stream a run keeps.
type TraceMode int

const (
	// TraceFull materializes every counter's full time series (the exact
	// historical behaviour; required for checkpointed collection).
	TraceFull TraceMode = iota
	// TraceStreamed folds every counter into streaming summary statistics
	// (profiler.Summary) and materializes no trace at all. Analyses that
	// need raw series (Figure 2/3, observations, ROI) are unavailable.
	TraceStreamed
	// TraceAuto materializes full series only for the metrics the analysis
	// layer reads raw (Table IV set, per-cluster loads, IPC, storage) and
	// folds everything else into summaries.
	TraceAuto
)

// Sampling and noise constants every run uses. The checkpoint fingerprint
// in internal/core writes their values as literals; change both together.
const (
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

// DefaultConfig returns the configuration used throughout the repository.
func DefaultConfig() Config {
	return Config{
		Platform:     soc.Snapdragon888HDK(),
		TickSec:      0.1,
		CacheSamples: 1500,
		Seed:         888,
	}
}

// normalize fills zero fields with defaults.
func (c Config) normalize() Config {
	d := DefaultConfig()
	if c.Platform == nil {
		c.Platform = d.Platform
	}
	if c.TickSec <= 0 {
		c.TickSec = d.TickSec
	}
	if c.CacheSamples <= 0 {
		c.CacheSamples = d.CacheSamples
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// Engine executes workloads.
//
// An Engine is safe for concurrent use: every Run acquires its mutable
// simulation state (caches, predictors, scheduler) exclusively from the
// engine's model pool and builds the rest (governor, power/thermal/GPU/AIE
// models, profiler and RNG streams) afresh per invocation, sharing only the
// immutable configuration, platform description and precomputed metric name
// tables. Each (workload, run) pair derives an independent random stream
// from the root seed, so concurrent runs produce bit-identical results to
// sequential ones.
type Engine struct {
	cfg  Config
	plat *soc.Platform
	// names holds every per-cluster and per-core counter name the tick
	// loop emits, formatted once at construction. The tick loop samples
	// ~190 metrics per tick; formatting those names per sample used to be
	// the pipeline's single largest allocation source.
	names [soc.NumClusters]clusterMetricNames

	// auto is the TraceAuto materialization set: the analysis layer's
	// platform-independent metrics plus this platform's per-cluster load
	// series.
	auto map[string]bool

	// free pools runModels across runs: cache tag/valid/LRU arrays and
	// predictor tables dominate per-run allocation after the name tables,
	// and a flushed model is behaviourally identical to a fresh one (see
	// runModels.reset), so reuse cannot change results. The pool grows to
	// the peak number of concurrent runs and never shrinks.
	mu   sync.Mutex
	free []*runModels
}

// runModels is the per-run model state an Engine pools: the shared L3/SLC,
// per-cluster cache hierarchies and branch predictors, the scheduler (whose
// core list and sort scratch are reusable but not concurrency-safe), and
// the auxiliary GPU/AIE/memory/storage/power/thermal models (cheap to
// reset, formerly rebuilt per run). Exactly one Run uses a runModels at a
// time, and the pool resets it before handing it to the next.
type runModels struct {
	l3, slc   *cache.Cache
	clusters  []*clusterState
	scheduler *sched.EAS

	powerM   *power.Model
	thermalM *thermal.Model
	gpuM     *gpu.Model
	aieM     *aie.Model
	timingM  TimingModel

	// slcPollute is the GPU texture stream polluting the SLC. Each run
	// re-targets it per phase; it is kept across runs so its tables are
	// reused.
	slcPollute *cache.StreamGen
}

// newRunModels builds a fresh model set for one run.
func (e *Engine) newRunModels() (*runModels, error) {
	l3 := cache.MustNew(e.plat.L3)
	slc := cache.MustNew(e.plat.SLC)
	clusters := make([]*clusterState, 0, int(soc.NumClusters))
	//mblint:ignore ctxloop bounded setup over at most NumClusters CPU clusters; the tick loop is the cancellation point
	for _, k := range soc.Clusters() {
		cl := e.plat.Clusters[k]
		if cl.NumCores == 0 {
			// Platforms may omit a cluster (mid-range SoCs have no prime
			// core); absent clusters emit no counters.
			continue
		}
		h, err := cache.NewHierarchy(cl, l3, slc)
		if err != nil {
			return nil, err
		}
		clusters = append(clusters, &clusterState{
			kind: k,
			cl:   cl,
			pen:  cpu.DefaultPenalties(cl),
			hier: h,
			pred: branch.NewTournament(14, 14),
			// Re-targeted at every phase change; kept across runs so
			// their Zipf tables are reused.
			stream:   new(cache.StreamGen),
			branches: new(branch.Stream),
		})
	}
	var timing TimingModel
	if e.cfg.Timing != nil {
		t, err := e.cfg.Timing.NewTimingModel(e.plat.Memory, e.plat.Storage)
		if err != nil {
			return nil, err
		}
		timing = t
	} else {
		timing = newAnalyticTiming(e.plat.Memory, e.plat.Storage)
	}
	return &runModels{
		l3: l3, slc: slc, clusters: clusters, scheduler: sched.NewEAS(e.plat),
		powerM:   power.NewModel(power.DefaultCoefficients()),
		thermalM: thermal.NewModel(thermal.DefaultConfig()),
		// The GPU model's texture RNG is per-run; RunContext re-seeds it via
		// ResetSeed before the first tick, so the placeholder stream here is
		// never consumed.
		gpuM:       gpu.NewModel(e.plat.GPU, e.plat.Display, xrand.New(1)),
		aieM:       aie.NewModel(e.plat.AIE),
		timingM:    timing,
		slcPollute: new(cache.StreamGen),
	}, nil
}

// reset returns a pooled model set to its initial state: caches flushed
// (an invalid line's stale tag/LRU words are never consulted, so a flushed
// cache is access-for-access identical to a new one), predictor tables
// zeroed, and all per-run cluster fields restored. A reset model therefore
// produces bit-identical runs to a freshly constructed one.
func (m *runModels) reset(cfg Config) error {
	m.l3.Flush()
	m.slc.Flush()
	for _, cs := range m.clusters {
		gov, err := governorByName(cfg.Governor)
		if err != nil {
			return err
		}
		cs.hier.Flush()
		cs.pred.Reset()
		cs.freqHz = cs.cl.MinFreqHz
		cs.gov = gov
		// phaseIdx -1 re-targets stream and branches before the run's
		// first sample.
		cs.miss = cpu.MissProfile{}
		cs.phaseIdx = -1
	}
	// Auxiliary models carry only accumulators and first-order state; their
	// Resets restore the exact just-constructed state. The GPU model is
	// re-seeded per run by RunContext instead, because its reset needs the
	// run's RNG stream.
	m.powerM.Reset()
	m.thermalM.Reset()
	m.aieM.Reset()
	return m.timingM.Reset()
}

// acquireModels pops a pooled model set (resetting it) or builds one.
func (e *Engine) acquireModels() (*runModels, error) {
	e.mu.Lock()
	if n := len(e.free); n > 0 {
		m := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.mu.Unlock()
		return m, m.reset(e.cfg)
	}
	e.mu.Unlock()
	m, err := e.newRunModels()
	if err != nil {
		return nil, err
	}
	return m, m.reset(e.cfg)
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
		n.ipc = clusterMetric(k, "ipc")
		n.cacheMPKI = clusterMetric(k, "cache_mpki")
		n.branchMPKI = clusterMetric(k, "branch_mpki")
		n.util = clusterMetric(k, "util")
		n.freqMHz = clusterMetric(k, "freq_mhz")
		n.load = clusterMetric(k, "load")
		n.activeCores = clusterMetric(k, "active_cores")
		n.overflow = clusterMetric(k, "overflow")
		n.topOPPFrac = clusterMetric(k, "top_opp_frac")
		for i, lvl := range cacheLevelSlugs {
			n.level[i] = clusterMetric(k, lvl+"_miss_per_instr")
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

// New creates an engine. A zero Config selects defaults.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.normalize()
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	if cfg.TraceMode < TraceFull || cfg.TraceMode > TraceAuto {
		return nil, fmt.Errorf("sim: unknown TraceMode %d", cfg.TraceMode)
	}
	if cfg.FastForward && cfg.EnableThermalThrottle {
		// The throttle feedback loop (temperature capping next-tick DVFS)
		// never reaches a freezable steady state; the combination would
		// silently simulate a different machine.
		return nil, fmt.Errorf("sim: FastForward is incompatible with EnableThermalThrottle")
	}
	e := &Engine{cfg: cfg, plat: cfg.Platform, names: buildMetricNames(cfg.Platform)}
	e.auto = make(map[string]bool, 16)
	for _, m := range profiler.AnalysisMetrics() {
		e.auto[m] = true
	}
	for _, k := range soc.Clusters() {
		e.auto[e.names[k].load] = true
	}
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

// Config returns the normalized configuration.
func (e *Engine) Config() Config { return e.cfg }

// Aggregates are whole-run summary metrics (the Figure 1 quantities plus
// the Table IV load averages used for clustering and subsetting).
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

// Result is one run of one workload.
type Result struct {
	Workload string
	// Trace is the materialized counter time series; nil when the run was
	// collected with TraceStreamed (the Summary then carries the run's
	// statistics).
	Trace *profiler.Trace
	// Summary holds streaming per-metric statistics; nil in TraceFull mode
	// (the historical default, where the Trace carries everything).
	Summary *profiler.Summary
	Agg     Aggregates
	// TimingNotes and TimingDegraded report the timing backend's health
	// over this run (restarts, circuit-break degradation to the in-process
	// model) when Config.Timing implements TimingReporter. They describe
	// the measuring process, not the measurement: checkpoints do not
	// persist them, so restored runs carry none.
	TimingNotes    []string
	TimingDegraded bool
}

type clusterState struct {
	kind     soc.ClusterKind
	cl       soc.CPUCluster
	freqHz   float64
	gov      cpu.Governor
	pen      cpu.Penalties
	hier     *cache.Hierarchy
	pred     branch.Predictor
	stream   *cache.StreamGen
	branches *branch.Stream
	miss     cpu.MissProfile
	phaseIdx int
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
	cfg := e.cfg

	// Chaos hook: decide this attempt's injected faults up front. The plan
	// is a pure function of (workload, run, attempt), so a faulted attempt
	// is reproducible and a clean retry is bit-identical to an unfaulted
	// run — the injector never touches the simulation RNG streams below.
	attempt := fault.Attempt(ctx)
	plan := cfg.Fault.PlanFor(w.Name, run, attempt)
	if plan.Crash {
		return nil, &fault.InjectedError{Mode: fault.ModeCrash, Unit: w.Name, Run: run, Attempt: attempt}
	}

	rng := xrand.New(cfg.Seed).Split(xrand.HashString(w.Name)).Split(uint64(run) + 1)

	// Jitter phase durations for this run.
	phases := make([]workload.Phase, len(w.Phases))
	copy(phases, w.Phases)
	//mblint:ignore ctxloop bounded per-run setup over a handful of phases; the tick loop below is the cancellation point
	for i := range phases {
		phases[i].Duration = rng.Jitter(phases[i].Duration, runtimeJitterRel)
	}
	jw := workload.Workload{Name: w.Name, Suite: w.Suite, Target: w.Target, Phases: phases}

	l3, slc := models.l3, models.slc
	clusters := models.clusters
	scheduler := models.scheduler
	powerModel := models.powerM
	thermalModel := models.thermalM
	gpuModel := models.gpuM
	aieModel := models.aieM
	timingModel := models.timingM
	// Re-seed the pooled GPU model with this run's stream; Split leaves the
	// parent untouched, so the derivation point does not matter.
	gpuModel.ResetSeed(rng.Split(0x91))

	duration := jw.Duration()
	ticks := int(duration / cfg.TickSec)
	if ticks < 1 {
		ticks = 1
	}
	// Every counter appends one sample per tick; pre-sizing the series from
	// the phase-timeline tick count makes each backing array grow exactly
	// once instead of log(ticks) times per counter. In TraceStreamed mode no
	// series exist at all; in TraceAuto only the analysis set does.
	var prof *profiler.Profiler
	var sum *profiler.Summary
	switch cfg.TraceMode {
	case TraceStreamed:
		sum = profiler.NewSummary(cfg.TickSec)
	case TraceAuto:
		prof = profiler.NewCap(cfg.TickSec, ticks)
		sum = profiler.NewSummary(cfg.TickSec)
	default:
		prof = profiler.NewCap(cfg.TickSec, ticks)
	}
	em := tickEmitter{prof: prof, sum: sum}
	if cfg.TraceMode == TraceAuto {
		em.auto = e.auto
	}
	var ff *ffState
	if cfg.FastForward {
		ff = newFFState()
		em.rec = newTickRecord()
	}

	// Injected mid-run faults fire at deterministic tick positions.
	abortTick, hangTick, panicTick := -1, -1, -1
	if plan.AbortFrac > 0 {
		abortTick = int(plan.AbortFrac * float64(ticks))
	}
	if plan.HangSec > 0 {
		hangTick = ticks / 2
	}
	if plan.PanicFrac > 0 {
		panicTick = int(plan.PanicFrac * float64(ticks))
	}

	var (
		totInstr, totCycles         float64
		totCacheMiss, totBranchMiss float64
		prevGPU                     gpu.Result
		prevAIE                     aie.Result
		prevIO                      mem.IOResult
		agg                         Aggregates
		slcPolluteIdx               = -1
		// tasks is this run's per-tick task scratch: truncated (never
		// reallocated once warm) at the top of every tick. Run-local, so
		// concurrent RunContext calls never share it.
		tasks []sched.Task
		// Fast-forward bookkeeping: per-cluster load contributions this
		// tick, cumulative-miss values at tick entry (to measure the tick's
		// deltas for the rate window), and the ring of recent tick inputs a
		// jump replays. Dead weight on the exact path.
		tickClusterLoad                   [soc.NumClusters]float64
		ffPrevCacheMiss, ffPrevBranchMiss float64
		ffRing                            [ffMaxPeriod]ffTickIn
	)
	agg.Name = w.Name

	for tick := 0; tick < ticks; tick++ {
		if tick%ctxCheckTicks == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if ff != nil {
			ffPrevCacheMiss, ffPrevBranchMiss = totCacheMiss, totBranchMiss
			em.rec.begin(ff.idx())
		}
		switch tick {
		case abortTick:
			return nil, &fault.InjectedError{
				Mode: fault.ModeAbort, Unit: w.Name, Run: run, Attempt: attempt, Frac: plan.AbortFrac,
			}
		case panicTick:
			panic(fmt.Sprintf("fault: injected panic in %s run %d attempt %d", w.Name, run, attempt))
		case hangTick:
			// A hung profiling session: stall wall-clock time mid-run. The
			// run's context (typically a per-run timeout) can cancel it.
			timer := time.NewTimer(time.Duration(plan.HangSec * float64(time.Second)))
			select {
			case <-ctx.Done():
				timer.Stop()
				return nil, ctx.Err()
			case <-timer.C:
			}
		}
		t := (float64(tick) + 0.5) * cfg.TickSec
		phase, _ := jw.PhaseAt(t)
		phaseIdx := phaseIndexAt(jw, t)

		// Build the tick's task set: workload threads plus demand bounced
		// back from the AIE (unsupported codecs) and the storage stack.
		tasks = tasks[:0]
		for _, ts := range phase.CPU.Tasks {
			for i := 0; i < ts.Count; i++ {
				d := rng.Jitter(ts.Demand, noiseRel)
				tasks = append(tasks, sched.Task{Demand: d, Affinity: ts.Affinity})
			}
		}
		if prevAIE.CPUFallbackDemand > 0 {
			tasks = appendSplitDemand(tasks, prevAIE.CPUFallbackDemand)
		}
		if prevIO.CPUDemand > 0 {
			tasks = appendSplitDemand(tasks, prevIO.CPUDemand)
		}
		placement := scheduler.Place(tasks)

		contention := cpu.Contention{
			GPUBusLoad:       prevGPU.BusBusy,
			MemBandwidthLoad: 0.5 * prevGPU.BusBusy,
		}

		tickInstr, tickCycles := 0.0, 0.0
		cpuLoadSum := 0.0
		cpuDRAMBytes := 0.0
		var powerIn power.Input
		for _, cs := range clusters {
			load := placement.Clusters[cs.kind]

			// DVFS from the utilization seen this tick.
			cs.freqHz = cs.gov.Next(cs.cl, cs.freqHz, load.Util)

			// Realized utilization grows when the governor runs the
			// cluster below peak frequency: the same work occupies more
			// of each second.
			util := load.Util
			if cs.freqHz > 0 {
				util = load.Util * cs.cl.MaxFreqHz / cs.freqHz
			}
			if util > 1 {
				util = 1
			}

			clusterLoad := util * cs.freqHz / cs.cl.MaxFreqHz
			agg.ClusterLoad[cs.kind] += clusterLoad
			cpuLoadSum += clusterLoad * float64(cs.cl.NumCores)
			tickClusterLoad[cs.kind] = clusterLoad

			active := util > 1e-4
			if active && (cs.phaseIdx != phaseIdx || tick%refreshTicks == 0) {
				if cs.phaseIdx != phaseIdx {
					cs.stream.Reset(phase.CPU.Access,
						uint64(cs.kind)+1, rng.Split(uint64(phaseIdx)*16+uint64(cs.kind)))
					cs.branches.Reset(phase.CPU.Branches,
						rng.Split(uint64(phaseIdx)*64+uint64(cs.kind)+7))
					cs.phaseIdx = phaseIdx
				}
				cs.miss = e.sampleMissProfile(cs, phase.CPU, rng)
			}
			if !active {
				continue
			}

			ipc := cpu.IPC(cs.cl, phase.CPU.Mix, cs.miss, cs.pen, contention)
			duty := phase.CPU.ComputeDuty
			cores := float64(cs.cl.NumCores)
			cyc := util * cs.freqHz * cores * cfg.TickSec * duty
			ins := cyc * ipc
			tickInstr += ins
			tickCycles += cyc

			cacheMiss := 0.0
			for _, mpi := range cs.miss.MissesPerInstr {
				cacheMiss += mpi
			}
			totCacheMiss += cacheMiss * ins
			totBranchMiss += cs.miss.BranchMissPerInstr * ins
			cpuDRAMBytes += cs.miss.MissesPerInstr[3] * ins * 64

			nm := &e.names[cs.kind]
			em.sample(nm.ipc, ipc)
			em.sample(nm.cacheMPKI, cacheMiss*1000)
			em.sample(nm.branchMPKI, cs.miss.BranchMissPerInstr*1000)
		}
		// Clusters that were idle this tick still need aligned samples.
		for _, cs := range clusters {
			nm := &e.names[cs.kind]
			load := placement.Clusters[cs.kind]
			util := load.Util
			if cs.freqHz > 0 {
				util = load.Util * cs.cl.MaxFreqHz / cs.freqHz
			}
			if util > 1 {
				util = 1
			}
			if util <= 1e-4 {
				em.sample(nm.ipc, 0)
				em.sample(nm.cacheMPKI, 0)
				em.sample(nm.branchMPKI, 0)
			}
			powerIn.Clusters[cs.kind] = power.ClusterInput{
				FreqHz:    cs.freqHz,
				Util:      util,
				MaxFreqHz: cs.cl.MaxFreqHz,
				Cores:     cs.cl.NumCores,
			}
			em.sample(nm.util, util)
			em.sample(nm.freqMHz, cs.freqHz/1e6)
			em.sample(nm.load, util*cs.freqHz/cs.cl.MaxFreqHz)
			em.sample(nm.activeCores, float64(load.ActiveCores))
			em.sample(nm.overflow, load.Overflow)
			// Per-core views: cores within a cluster behave near
			// identically (the paper averages them for the same reason).
			ipcNow := 0.0
			cacheSum := 0.0
			for _, mpi := range cs.miss.MissesPerInstr {
				cacheSum += mpi
			}
			if util > 1e-4 {
				ipcNow = cpu.IPC(cs.cl, phase.CPU.Mix, cs.miss, cs.pen, contention)
			}
			for c := 0; c < cs.cl.NumCores; c++ {
				cn := &nm.core[c]
				em.sample(cn.load, util*cs.freqHz/cs.cl.MaxFreqHz)
				em.sample(cn.util, util)
				em.sample(cn.freqMHz, cs.freqHz/1e6)
				em.sample(cn.ipc, ipcNow)
				em.sample(cn.cacheMPKI, cacheSum*1000)
				em.sample(cn.branchMPKI, cs.miss.BranchMissPerInstr*1000)
				for i := range cn.level {
					em.sample(cn.level[i], cs.miss.MissesPerInstr[i])
				}
			}
			for i := range nm.level {
				em.sample(nm.level[i], cs.miss.MissesPerInstr[i])
			}
			// DVFS residency: fraction of this tick at the top operating
			// point (1 when pinned at max frequency).
			top := 0.0
			if cs.freqHz >= cs.cl.MaxFreqHz-1 {
				top = 1
			}
			em.sample(nm.topOPPFrac, top)
		}

		totInstr += tickInstr
		totCycles += tickCycles

		gpuRes := gpuModel.Step(phase.GPU, cfg.TickSec)
		// GPU texture traffic flows through the SoC-wide system-level
		// cache, displacing CPU lines; this is the mechanism behind the
		// depressed IPC of graphics-heavy benchmarks (Section V-A).
		if phase.GPU.TextureWorkingSetMB > 0 && gpuRes.BusBusy > 0 {
			if slcPolluteIdx != phaseIdx {
				models.slcPollute.Reset(cache.AccessPattern{
					WorkingSetBytes: uint64(phase.GPU.TextureWorkingSetMB * 1024 * 1024),
					SequentialFrac:  0.6,
					ReuseSkew:       0.4,
				}, 23, rng.Split(uint64(phaseIdx)*131+5))
				slcPolluteIdx = phaseIdx
			}
			models.slcPollute.Pollute(slc, int(gpuRes.BusBusy*float64(cfg.CacheSamples)*0.5))
		}
		aieRes := aieModel.Step(phase.AIE, cfg.TickSec)
		footprint := phase.Mem
		footprint.GPUMB += phase.GPU.TextureWorkingSetMB
		memRes, ioRes, err := timingModel.Step(footprint, phase.IO, cfg.TickSec)
		if err != nil {
			return nil, fmt.Errorf("sim: timing model at tick %d: %w", tick, err)
		}

		prevGPU, prevAIE, prevIO = gpuRes, aieRes, ioRes

		// Power and thermal extensions: observational counters by default,
		// with optional throttle feedback into the next tick's DVFS.
		powerIn.GPULoad = gpuRes.Load
		powerIn.AIELoad = aieRes.Load
		powerIn.DRAMBytes = gpuRes.BytesMoved + cpuDRAMBytes
		powerIn.StorageUtil = ioRes.Util
		powerIn.DTSec = cfg.TickSec
		pw := powerModel.Step(powerIn)
		var heat [thermal.NumNodes]float64
		heat[thermal.NodeCPU] = pw.CPUW()
		heat[thermal.NodeGPU] = pw.GPU
		heat[thermal.NodeSoC] = pw.AIE + pw.DRAM + pw.Storage + pw.Base
		th := thermalModel.Step(heat, cfg.TickSec)
		if cfg.EnableThermalThrottle {
			capCPU := thermalModel.FreqCapFactor(thermal.NodeCPU)
			for _, cs := range clusters {
				if max := cs.cl.MaxFreqHz * capCPU; cs.freqHz > max {
					cs.freqHz = max
				}
			}
		}
		if th.NodeC[thermal.NodeCPU] > agg.PeakCPUTempC {
			agg.PeakCPUTempC = th.NodeC[thermal.NodeCPU]
		}

		cpuLoad := cpuLoadSum / float64(e.plat.TotalCores())
		em.sample(profiler.MetricCPULoad, cpuLoad)
		em.sample(profiler.MetricGPULoad, gpuRes.Load)
		em.sample(profiler.MetricShadersBusy, gpuRes.ShadersBusy)
		em.sample(profiler.MetricGPUBusBusy, gpuRes.BusBusy)
		em.sample(profiler.MetricAIELoad, aieRes.Load)
		em.sample(profiler.MetricUsedMem, memRes.UsedFrac)
		em.sample(profiler.MetricWorkloadMem, memRes.WorkloadFrac)
		em.sample(profiler.MetricStorageUtil, ioRes.Util)
		em.sample("mem.used_mb", memRes.UsedMB)
		em.sample("mem.workload_mb", memRes.WorkloadMB)
		em.sample("mem.gpu_mb", memRes.FootprintByUse.GPUMB)
		em.sample("mem.heap_mb", memRes.FootprintByUse.CPUHeapMB)
		em.sample("mem.media_mb", memRes.FootprintByUse.MediaMB)
		em.sample("gpu.util", gpuRes.Util)
		em.sample("gpu.freq_mhz", gpuRes.FreqHz/1e6)
		em.sample("gpu.fps", gpuRes.FPS)
		em.sample("gpu.tex_miss_ratio", gpuRes.TexMissRatio)
		em.sample("gpu.bus_bytes", gpuRes.BytesMoved)
		em.sample("aie.util", aieRes.Util)
		em.sample("aie.freq_mhz", aieRes.FreqHz/1e6)
		em.sample("aie.cpu_fallback", aieRes.CPUFallbackDemand)
		em.sample("storage.bytes", ioRes.BytesMoved)
		em.sample("storage.read_mbps", phase.IO.SeqReadMBs+phase.IO.RandReadIOPS*4096/1e6)
		em.sample("storage.write_mbps", phase.IO.SeqWriteMBs+phase.IO.RandWriteIOPS*4096/1e6)
		em.sample("storage.iops", phase.IO.RandReadIOPS+phase.IO.RandWriteIOPS)
		em.sample("mem.free_mb", e.plat.Memory.TotalMB-memRes.UsedMB)
		em.sample("gpu.frame_time_ms", frameTimeMS(gpuRes.FPS))
		em.sample("gpu.drawcall_rate", gpuRes.FPS*phase.GPU.DrawCallsPerFrame)
		em.sample("slc.accesses", float64(slc.Stats().Accesses))
		em.sample("slc.misses", float64(slc.Stats().Misses))
		em.sample("l3.accesses", float64(l3.Stats().Accesses))
		em.sample("l3.misses", float64(l3.Stats().Misses))
		em.sample("cpu.total_instr", totInstr)
		em.sample("cpu.total_cycles", totCycles)
		em.sample("power.total_w", pw.TotalW())
		em.sample("power.cpu_w", pw.CPUW())
		em.sample("power.little_w", pw.Cluster[soc.Little])
		em.sample("power.mid_w", pw.Cluster[soc.Mid])
		em.sample("power.big_w", pw.Cluster[soc.Big])
		em.sample("power.gpu_w", pw.GPU)
		em.sample("power.aie_w", pw.AIE)
		em.sample("power.dram_w", pw.DRAM)
		em.sample("power.storage_w", pw.Storage)
		em.sample("energy.total_j", powerModel.EnergyJ())
		em.sample("thermal.cpu_c", th.NodeC[thermal.NodeCPU])
		em.sample("thermal.gpu_c", th.NodeC[thermal.NodeGPU])
		em.sample("thermal.soc_c", th.NodeC[thermal.NodeSoC])
		em.sample("thermal.skin_c", th.SkinC)
		em.sample("thermal.cpu_throttled", boolToFloat(th.Throttled[thermal.NodeCPU]))
		em.sample(profiler.MetricInstrRate, tickInstr/cfg.TickSec)
		if tickCycles > 0 {
			em.sample(profiler.MetricIPC, tickInstr/tickCycles)
		} else {
			em.sample(profiler.MetricIPC, 0)
		}
		em.sample(profiler.MetricCacheMPKI, safeDiv(totCacheMiss, totInstr)*1000)
		em.sample(profiler.MetricBranchMPKI, safeDiv(totBranchMiss, totInstr)*1000)

		agg.AvgCPULoad += cpuLoad
		agg.AvgGPULoad += gpuRes.Load
		agg.AvgShadersBusy += gpuRes.ShadersBusy
		agg.AvgGPUBusBusy += gpuRes.BusBusy
		agg.AvgAIELoad += aieRes.Load
		agg.AvgUsedMemFrac += memRes.UsedFrac
		agg.AvgUsedMemMB += memRes.UsedMB
		if memRes.UsedMB > agg.PeakUsedMemMB {
			agg.PeakUsedMemMB = memRes.UsedMB
		}

		// Phase fast-forwarding: capture this tick's inputs in the replay
		// ring, fold the steady-state evidence, and — once the governor's
		// limit cycle and the counter rates have proven stationary — execute
		// the rest of the phase analytically and jump to its boundary.
		// Cancellation is honoured around every jump, matching the tick
		// loop's ctxCheckTicks responsiveness even when a jump covers
		// thousands of ticks.
		if ff != nil {
			ffRing[ff.idx()%ffMaxPeriod] = ffTickIn{
				cpuLoad:     cpuLoad,
				gpuLoad:     gpuRes.Load,
				shadersBusy: gpuRes.ShadersBusy,
				gpuBusBusy:  gpuRes.BusBusy,
				aieLoad:     aieRes.Load,
				clusterLoad: tickClusterLoad,
				cycles:      tickCycles,
				footprint:   footprint,
				powerIn:     powerIn,
				heat:        heat,
			}
			var snap ffFreqState
			for _, cs := range clusters {
				snap.cpu[cs.kind] = cs.freqHz
			}
			snap.gpu, snap.aie = gpuRes.FreqHz, aieRes.FreqHz
			p := ff.observe(tick, phaseIdx, snap,
				tickInstr, tickCycles,
				totCacheMiss-ffPrevCacheMiss, totBranchMiss-ffPrevBranchMiss)
			if p > 0 {
				if k := spanLength(jw, cfg.TickSec, tick, ticks, phaseIdx, abortTick, hangTick, panicTick); k > 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					draws := 0
					for _, ts := range phase.CPU.Tasks {
						draws += ts.Count
					}
					sp := ffSpan{
						k: k, p: p, last: ff.idx() - 1, dt: cfg.TickSec,
						jitterDraws: draws,
						ring:        &ffRing,
						totalMemMB:  e.plat.Memory.TotalMB,
					}
					sp.ipc, sp.cachePI, sp.branchPI = ff.rates()
					if err := runSpan(&sp, rng, powerModel, thermalModel, timingModel,
						&em, &agg, &totInstr, &totCycles, &totCacheMiss, &totBranchMiss); err != nil {
						return nil, err
					}
					tick += k
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	n := float64(ticks)
	agg.AvgPowerW = powerModel.AveragePowerW()
	agg.EnergyJ = powerModel.EnergyJ()
	agg.RuntimeSec = duration
	agg.InstrCount = totInstr
	agg.IPC = safeDiv(totInstr, totCycles)
	agg.CacheMPKI = safeDiv(totCacheMiss, totInstr) * 1000
	agg.BranchMPKI = safeDiv(totBranchMiss, totInstr) * 1000
	agg.AvgCPULoad /= n
	agg.AvgGPULoad /= n
	agg.AvgShadersBusy /= n
	agg.AvgGPUBusBusy /= n
	agg.AvgAIELoad /= n
	agg.AvgUsedMemFrac /= n
	agg.AvgUsedMemMB /= n
	for k := range agg.ClusterLoad {
		agg.ClusterLoad[k] /= n
	}

	var tr *profiler.Trace
	if prof != nil {
		var err error
		tr, err = prof.Trace()
		if err != nil {
			return nil, err
		}
	}
	if sum != nil {
		sum.Ticks = ticks
	}

	// Chaos hook: corrupt the finished measurement the way a flaky
	// profiler session would. Skew scales both the trace and the intensity
	// aggregates — a self-consistent but non-representative run that only
	// outlier rejection can catch; drop/NaN damage the trace so validation
	// (and, failing that, repair) has real work to do.
	if plan.Faulty() {
		if f := plan.SkewFactor; f != 0 && f != 1 {
			agg = skewAgg(agg, f)
		}
		if tr != nil {
			plan.Corrupt(tr)
		}
	}
	res := &Result{Workload: w.Name, Trace: tr, Summary: sum, Agg: agg}
	if rep, ok := timingModel.(TimingReporter); ok {
		res.TimingNotes, res.TimingDegraded = rep.TimingReport()
	}
	return res, nil
}

// skewAgg scales the intensity aggregates of a run by f, leaving the
// extensive run identity (runtime) untouched. It models a run whose whole
// measurement session was miscalibrated by a constant factor.
func skewAgg(a Aggregates, f float64) Aggregates {
	a.InstrCount *= f
	a.IPC *= f
	a.CacheMPKI *= f
	a.BranchMPKI *= f
	a.AvgCPULoad *= f
	a.AvgGPULoad *= f
	a.AvgShadersBusy *= f
	a.AvgGPUBusBusy *= f
	a.AvgAIELoad *= f
	a.AvgUsedMemFrac *= f
	a.AvgUsedMemMB *= f
	a.PeakUsedMemMB *= f
	for k := range a.ClusterLoad {
		a.ClusterLoad[k] *= f
	}
	a.AvgPowerW *= f
	a.EnergyJ *= f
	return a
}

// sampleMissProfile refreshes a cluster's measured memory/branch behaviour
// by driving sampled synthetic streams through the cache hierarchy and
// branch predictor.
func (e *Engine) sampleMissProfile(cs *clusterState, cp workload.CPUPhase, rng *xrand.Rand) cpu.MissProfile {
	var miss cpu.MissProfile
	n := e.cfg.CacheSamples
	if n > 0 && cp.Mix.LoadStoreFrac > 0 {
		counts := cs.stream.Batch(cs.hier, n)
		for i := 0; i < 4; i++ {
			miss.MissesPerInstr[i] = float64(counts[i]) / float64(n) * cp.Mix.LoadStoreFrac
		}
	}
	if cp.Mix.BranchFrac > 0 {
		wrong := cs.branches.Measure(cs.pred, branchSamples)
		miss.BranchMissPerInstr = float64(wrong) / branchSamples * cp.Mix.BranchFrac
	}
	_ = rng
	return miss
}

// AverageResults merges per-run results (ordered by run index) into the
// run-averaged result: traces are averaged sample-wise (when the runs
// carry traces), summaries are pooled in run order (when they carry
// summaries), and aggregates are folded in run order. The fold order is
// fixed so that parallel collection paths reproduce the sequential result
// exactly.
func AverageResults(name string, results []*Result) (*Result, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("sim: no results to average for %s", name)
	}
	for i, r := range results {
		if r == nil {
			return nil, fmt.Errorf("sim: missing run %d result for %s", i, name)
		}
		if (r.Trace == nil) != (results[0].Trace == nil) ||
			(r.Summary == nil) != (results[0].Summary == nil) {
			return nil, fmt.Errorf("sim: run %d of %s mixes trace modes", i, name)
		}
	}
	var mean *profiler.Trace
	if results[0].Trace != nil {
		traces := make([]*profiler.Trace, len(results))
		for i, r := range results {
			traces[i] = r.Trace
		}
		var err error
		mean, err = profiler.MeanTraces(traces)
		if err != nil {
			return nil, err
		}
	}
	var merged *profiler.Summary
	if results[0].Summary != nil {
		sums := make([]*profiler.Summary, len(results))
		for i, r := range results {
			sums[i] = r.Summary
		}
		var err error
		merged, err = profiler.MergeSummaries(sums)
		if err != nil {
			return nil, err
		}
	}
	agg := results[0].Agg
	for _, r := range results[1:] {
		agg = addAgg(agg, r.Agg)
	}
	agg = scaleAgg(agg, 1/float64(len(results)))
	agg.Name = name
	return &Result{Workload: name, Trace: mean, Summary: merged, Agg: agg}, nil
}

func addAgg(a, b Aggregates) Aggregates {
	a.RuntimeSec += b.RuntimeSec
	a.InstrCount += b.InstrCount
	a.IPC += b.IPC
	a.CacheMPKI += b.CacheMPKI
	a.BranchMPKI += b.BranchMPKI
	a.AvgCPULoad += b.AvgCPULoad
	a.AvgGPULoad += b.AvgGPULoad
	a.AvgShadersBusy += b.AvgShadersBusy
	a.AvgGPUBusBusy += b.AvgGPUBusBusy
	a.AvgAIELoad += b.AvgAIELoad
	a.AvgUsedMemFrac += b.AvgUsedMemFrac
	a.AvgUsedMemMB += b.AvgUsedMemMB
	if b.PeakUsedMemMB > a.PeakUsedMemMB {
		a.PeakUsedMemMB = b.PeakUsedMemMB
	}
	for k := range a.ClusterLoad {
		a.ClusterLoad[k] += b.ClusterLoad[k]
	}
	a.AvgPowerW += b.AvgPowerW
	a.EnergyJ += b.EnergyJ
	if b.PeakCPUTempC > a.PeakCPUTempC {
		a.PeakCPUTempC = b.PeakCPUTempC
	}
	return a
}

func scaleAgg(a Aggregates, f float64) Aggregates {
	a.RuntimeSec *= f
	a.InstrCount *= f
	a.IPC *= f
	a.CacheMPKI *= f
	a.BranchMPKI *= f
	a.AvgCPULoad *= f
	a.AvgGPULoad *= f
	a.AvgShadersBusy *= f
	a.AvgGPUBusBusy *= f
	a.AvgAIELoad *= f
	a.AvgUsedMemFrac *= f
	a.AvgUsedMemMB *= f
	for k := range a.ClusterLoad {
		a.ClusterLoad[k] *= f
	}
	a.AvgPowerW *= f
	a.EnergyJ *= f
	return a
}

// appendSplitDemand appends a capacity demand to dst split into schedulable
// task chunks no larger than a Big core. Appending into the caller's scratch
// keeps the tick loop free of per-tick slice garbage.
func appendSplitDemand(dst []sched.Task, total float64) []sched.Task {
	for total > 0 {
		d := total
		if d > 0.9 {
			d = 0.9
		}
		dst = append(dst, sched.Task{Demand: d})
		total -= d
	}
	return dst
}

func phaseIndexAt(w workload.Workload, t float64) int {
	acc := 0.0
	for i, p := range w.Phases {
		if t < acc+p.Duration {
			return i
		}
		acc += p.Duration
	}
	return len(w.Phases) - 1
}

func clusterMetric(k soc.ClusterKind, name string) string {
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

// governorByName resolves a Config.Governor value.
func governorByName(name string) (cpu.Governor, error) {
	switch name {
	case "", "schedutil":
		return cpu.NewSchedutil(), nil
	case "performance":
		return cpu.Performance{}, nil
	case "powersave":
		return cpu.Powersave{}, nil
	default:
		return nil, fmt.Errorf("sim: unknown governor %q", name)
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
