// Package sim is the tick-based SoC simulation engine.
//
// The engine executes a workload (a phase timeline) against the platform
// models: each tick it places the phase's thread demands with the EAS
// scheduler, lets each cluster's schedutil governor pick its frequency,
// drives sampled memory and branch streams through the cache hierarchy and
// branch predictor to obtain miss profiles, converts those into achieved
// IPC with the CPU performance model, steps the GPU, AIE, memory and
// storage models, and emits every counter into the profiler. Cross-component couplings the
// paper highlights are explicit: GPU bus pressure inflates CPU memory stall
// time (low IPC in graphics benchmarks), unsupported codecs bounce work from
// the AIE back to the CPU, and storage IO burns CPU submission time.
//
// A run is a pure function of (configuration, workload, run index): it
// reads no clock and knows nothing of retries. Measurement faults are
// injected around it, at the attempt boundary in internal/core.
package sim

import (
	"context"
	"fmt"
	"sync"

	"mobilebench/internal/aie"
	"mobilebench/internal/branch"
	"mobilebench/internal/cache"
	"mobilebench/internal/cpu"
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

// Config parameterizes the engine. Every run keeps its full per-tick
// counter trace (Result.Trace); no option trades it away.
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
	// FastForward enables phase fast-forwarding: once a phase reaches
	// steady state (settled DVFS, converged miss profiles, decayed GPU/AIE
	// transients) the remaining ticks are executed analytically instead of
	// one by one, with the RNG streams advanced in stride so later phases
	// see the exact noise sequence. Off (the default) keeps the exact,
	// byte-identical path; on, results drift within the tolerances pinned
	// by the differential suite (TestFastForwardDifferential).
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
	// gpuBuf backs an exact run's GPU chunks (see gpuAhead), so a run's
	// hand-over costs the same few allocations however many ticks it has.
	gpuBuf []gpu.Result
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
			gov:  cpu.NewSchedutil(),
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
		gpuBuf:     make([]gpu.Result, gpuAheadDepth*gpuAheadChunk),
	}, nil
}

// reset returns a pooled model set to its initial state: caches flushed
// (an invalid line's stale tag/LRU words are never consulted, so a flushed
// cache is access-for-access identical to a new one), predictor tables
// zeroed, and all per-run cluster fields restored. A reset model therefore
// produces bit-identical runs to a freshly constructed one.
func (m *runModels) reset() error {
	m.l3.Flush()
	m.slc.Flush()
	for _, cs := range m.clusters {
		cs.hier.Flush()
		cs.pred.Reset()
		cs.freqHz = cs.cl.MinFreqHz
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

// New creates an engine. A zero Config selects defaults.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.normalize()
	if err := cfg.Platform.Validate(); err != nil {
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

// Config returns the normalized configuration.
func (e *Engine) Config() Config { return e.cfg }

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

// tickIn is one tick's model inputs. Fast-forwarding keeps the last
// ffMaxPeriod of them and replays them across a span.
type tickIn struct {
	// cycles is the tick's CPU cycle count — periodic with the governor's
	// limit cycle (utilization x frequency), so it replays exactly.
	cycles    float64
	footprint mem.Footprint
	powerIn   power.Input
	heat      [thermal.NumNodes]float64
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

type clusterState struct {
	kind     soc.ClusterKind
	cl       soc.CPUCluster
	freqHz   float64
	gov      *cpu.Schedutil
	pen      cpu.Penalties
	hier     *cache.Hierarchy
	pred     *branch.Tournament
	stream   *cache.StreamGen
	branches *branch.Stream
	miss     cpu.MissProfile
	phaseIdx int

	// The current tick's load (frequency x utilization), clamped
	// utilization, achieved IPC (0 when idle) and summed misses per
	// instruction across cache levels, computed by the tick loop's first
	// cluster pass and sampled by its second.
	load, util, ipc, missPI float64
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
	// once instead of log(ticks) times per counter.
	prof := profiler.New(cfg.TickSec, ticks)
	var (
		ff    *ffState
		ahead *gpuAhead
	)
	if cfg.FastForward {
		ff = newFFState()
	} else {
		// From here on only the helper touches gpuModel; the deferred halt
		// joins it before releaseModels hands the models to another run.
		dt := cfg.TickSec
		ahead = startGPUAhead(ctx, models.gpuBuf, ticks, func(tick int) gpu.Result {
			phase, _ := jw.PhaseAt((float64(tick) + 0.5) * dt)
			return gpuModel.Step(phase.GPU, dt)
		})
		defer ahead.halt()
	}

	var (
		totInstr, totCycles         float64
		totCacheMiss, totBranchMiss float64
		prevGPU                     gpu.Result
		prevAIE                     aie.Result
		prevIO                      mem.IOResult
		slcPolluteIdx               = -1
		// tasks is this run's per-tick task scratch: truncated (never
		// reallocated once warm) at the top of every tick. Run-local, so
		// concurrent RunContext calls never share it.
		tasks []sched.Task
		// Cumulative-miss values at tick entry, so fast-forwarding can
		// measure the tick's deltas for its rate window.
		ffPrevCacheMiss, ffPrevBranchMiss float64
	)

	for tick := 0; tick < ticks; tick++ {
		if tick%ctxCheckTicks == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if ff != nil {
			ffPrevCacheMiss, ffPrevBranchMiss = totCacheMiss, totBranchMiss
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

		var in tickIn
		tickInstr := 0.0
		cpuLoadSum := 0.0
		cpuDRAMBytes := 0.0
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

			cs.load = util * cs.freqHz / cs.cl.MaxFreqHz
			cpuLoadSum += cs.load * float64(cs.cl.NumCores)

			active := util > 1e-4
			if active && (cs.phaseIdx != phaseIdx || tick%refreshTicks == 0) {
				if cs.phaseIdx != phaseIdx {
					cs.stream.Reset(phase.CPU.Access,
						uint64(cs.kind)+1, rng.Split(uint64(phaseIdx)*16+uint64(cs.kind)))
					cs.branches.Reset(phase.CPU.Branches,
						rng.Split(uint64(phaseIdx)*64+uint64(cs.kind)+7))
					cs.phaseIdx = phaseIdx
				}
				cs.miss = e.sampleMissProfile(cs, phase.CPU)
			}
			cs.util, cs.ipc, cs.missPI = util, 0, 0
			for _, mpi := range cs.miss.MissesPerInstr {
				cs.missPI += mpi
			}
			if !active {
				continue
			}

			cs.ipc = cpu.IPC(cs.cl, phase.CPU.Mix, cs.miss, cs.pen, contention)
			duty := phase.CPU.ComputeDuty
			cores := float64(cs.cl.NumCores)
			cyc := util * cs.freqHz * cores * cfg.TickSec * duty
			ins := cyc * cs.ipc
			tickInstr += ins
			in.cycles += cyc

			totCacheMiss += cs.missPI * ins
			totBranchMiss += cs.miss.BranchMissPerInstr * ins
			cpuDRAMBytes += cs.miss.MissesPerInstr[3] * ins * 64

			nm := &e.names[cs.kind]
			prof.Sample(nm.ipc, cs.ipc)
			prof.Sample(nm.cacheMPKI, cs.missPI*1000)
			prof.Sample(nm.branchMPKI, cs.miss.BranchMissPerInstr*1000)
		}
		// Clusters that were idle this tick still need aligned samples.
		for _, cs := range clusters {
			nm := &e.names[cs.kind]
			load := placement.Clusters[cs.kind]
			if cs.util <= 1e-4 {
				prof.Sample(nm.ipc, 0)
				prof.Sample(nm.cacheMPKI, 0)
				prof.Sample(nm.branchMPKI, 0)
			}
			in.powerIn.Clusters[cs.kind] = power.ClusterInput{
				FreqHz:    cs.freqHz,
				Util:      cs.util,
				MaxFreqHz: cs.cl.MaxFreqHz,
				Cores:     cs.cl.NumCores,
			}
			prof.Sample(nm.util, cs.util)
			prof.Sample(nm.freqMHz, cs.freqHz/1e6)
			prof.Sample(nm.load, cs.load)
			prof.Sample(nm.activeCores, float64(load.ActiveCores))
			prof.Sample(nm.overflow, load.Overflow)
			// Per-core views: cores within a cluster behave near
			// identically (the paper averages them for the same reason).
			for c := 0; c < cs.cl.NumCores; c++ {
				cn := &nm.core[c]
				prof.Sample(cn.load, cs.load)
				prof.Sample(cn.util, cs.util)
				prof.Sample(cn.freqMHz, cs.freqHz/1e6)
				prof.Sample(cn.ipc, cs.ipc)
				prof.Sample(cn.cacheMPKI, cs.missPI*1000)
				prof.Sample(cn.branchMPKI, cs.miss.BranchMissPerInstr*1000)
				for i := range cn.level {
					prof.Sample(cn.level[i], cs.miss.MissesPerInstr[i])
				}
			}
			for i := range nm.level {
				prof.Sample(nm.level[i], cs.miss.MissesPerInstr[i])
			}
			// DVFS residency: fraction of this tick at the top operating
			// point (1 when pinned at max frequency).
			top := 0.0
			if cs.freqHz >= cs.cl.MaxFreqHz-1 {
				top = 1
			}
			prof.Sample(nm.topOPPFrac, top)
		}

		totInstr += tickInstr
		totCycles += in.cycles

		var gpuRes gpu.Result
		if ahead != nil {
			if gpuRes, err = ahead.next(); err != nil {
				return nil, err
			}
		} else {
			gpuRes = gpuModel.Step(phase.GPU, cfg.TickSec)
		}
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
		in.footprint = phase.Mem
		in.footprint.GPUMB += phase.GPU.TextureWorkingSetMB
		memRes, ioRes, err := timingModel.Step(in.footprint, phase.IO, cfg.TickSec)
		if err != nil {
			return nil, fmt.Errorf("sim: timing model at tick %d: %w", tick, err)
		}

		prevGPU, prevAIE, prevIO = gpuRes, aieRes, ioRes

		// Power and thermal extensions: observational counters only; the
		// paper's development board never throttled.
		in.powerIn.GPULoad = gpuRes.Load
		in.powerIn.AIELoad = aieRes.Load
		in.powerIn.DRAMBytes = gpuRes.BytesMoved + cpuDRAMBytes
		in.powerIn.StorageUtil = ioRes.Util
		in.powerIn.DTSec = cfg.TickSec
		pw := powerModel.Step(in.powerIn)
		in.heat[thermal.NodeCPU] = pw.CPUW()
		in.heat[thermal.NodeGPU] = pw.GPU
		in.heat[thermal.NodeSoC] = pw.AIE + pw.DRAM + pw.Storage + pw.Base
		th := thermalModel.Step(in.heat, cfg.TickSec)

		prof.Sample(profiler.MetricCPULoad, cpuLoadSum/float64(e.plat.TotalCores()))
		prof.Sample(profiler.MetricGPULoad, gpuRes.Load)
		prof.Sample(profiler.MetricShadersBusy, gpuRes.ShadersBusy)
		prof.Sample(profiler.MetricGPUBusBusy, gpuRes.BusBusy)
		prof.Sample(profiler.MetricAIELoad, aieRes.Load)
		prof.Sample(profiler.MetricUsedMem, memRes.UsedFrac)
		prof.Sample(profiler.MetricWorkloadMem, memRes.WorkloadFrac)
		prof.Sample(profiler.MetricStorageUtil, ioRes.Util)
		prof.Sample(profiler.MetricUsedMemMB, memRes.UsedMB)
		prof.Sample("mem.workload_mb", memRes.WorkloadMB)
		prof.Sample("mem.gpu_mb", memRes.FootprintByUse.GPUMB)
		prof.Sample("mem.heap_mb", memRes.FootprintByUse.CPUHeapMB)
		prof.Sample("mem.media_mb", memRes.FootprintByUse.MediaMB)
		prof.Sample("gpu.util", gpuRes.Util)
		prof.Sample("gpu.freq_mhz", gpuRes.FreqHz/1e6)
		prof.Sample("gpu.fps", gpuRes.FPS)
		prof.Sample("gpu.tex_miss_ratio", gpuRes.TexMissRatio)
		prof.Sample("gpu.bus_bytes", gpuRes.BytesMoved)
		prof.Sample("aie.util", aieRes.Util)
		prof.Sample("aie.freq_mhz", aieRes.FreqHz/1e6)
		prof.Sample("aie.cpu_fallback", aieRes.CPUFallbackDemand)
		prof.Sample("storage.bytes", ioRes.BytesMoved)
		prof.Sample("storage.read_mbps", phase.IO.SeqReadMBs+phase.IO.RandReadIOPS*4096/1e6)
		prof.Sample("storage.write_mbps", phase.IO.SeqWriteMBs+phase.IO.RandWriteIOPS*4096/1e6)
		prof.Sample("storage.iops", phase.IO.RandReadIOPS+phase.IO.RandWriteIOPS)
		prof.Sample("mem.free_mb", e.plat.Memory.TotalMB-memRes.UsedMB)
		prof.Sample("gpu.frame_time_ms", frameTimeMS(gpuRes.FPS))
		prof.Sample("gpu.drawcall_rate", gpuRes.FPS*phase.GPU.DrawCallsPerFrame)
		prof.Sample("slc.accesses", float64(slc.Stats().Accesses))
		prof.Sample("slc.misses", float64(slc.Stats().Misses))
		prof.Sample("l3.accesses", float64(l3.Stats().Accesses))
		prof.Sample("l3.misses", float64(l3.Stats().Misses))
		prof.Sample("cpu.total_instr", totInstr)
		prof.Sample("cpu.total_cycles", totCycles)
		prof.Sample("power.total_w", pw.TotalW())
		prof.Sample("power.cpu_w", pw.CPUW())
		prof.Sample("power.little_w", pw.Cluster[soc.Little])
		prof.Sample("power.mid_w", pw.Cluster[soc.Mid])
		prof.Sample("power.big_w", pw.Cluster[soc.Big])
		prof.Sample("power.gpu_w", pw.GPU)
		prof.Sample("power.aie_w", pw.AIE)
		prof.Sample("power.dram_w", pw.DRAM)
		prof.Sample("power.storage_w", pw.Storage)
		prof.Sample("energy.total_j", powerModel.EnergyJ())
		prof.Sample(profiler.MetricCPUTempC, th.NodeC[thermal.NodeCPU])
		prof.Sample("thermal.gpu_c", th.NodeC[thermal.NodeGPU])
		prof.Sample("thermal.soc_c", th.NodeC[thermal.NodeSoC])
		prof.Sample("thermal.skin_c", th.SkinC)
		prof.Sample("thermal.cpu_throttled", boolToFloat(th.Throttled[thermal.NodeCPU]))
		prof.Sample(profiler.MetricInstrRate, tickInstr/cfg.TickSec)
		if in.cycles > 0 {
			prof.Sample(profiler.MetricIPC, tickInstr/in.cycles)
		} else {
			prof.Sample(profiler.MetricIPC, 0)
		}
		prof.Sample(profiler.MetricCacheMPKI, safeDiv(totCacheMiss, totInstr)*1000)
		prof.Sample(profiler.MetricBranchMPKI, safeDiv(totBranchMiss, totInstr)*1000)

		// Phase fast-forwarding: fold this tick's inputs and steady-state
		// evidence, and — once the governor's
		// limit cycle and the counter rates have proven stationary — execute
		// the rest of the phase analytically and jump to its boundary.
		// Cancellation is honoured around every jump, matching the tick
		// loop's ctxCheckTicks responsiveness even when a jump covers
		// thousands of ticks.
		if ff != nil {
			var snap ffFreqState
			for _, cs := range clusters {
				snap.cpu[cs.kind] = cs.freqHz
			}
			snap.gpu, snap.aie = gpuRes.FreqHz, aieRes.FreqHz
			p := ff.observe(tick, phaseIdx, &in, snap, tickInstr,
				totCacheMiss-ffPrevCacheMiss, totBranchMiss-ffPrevBranchMiss)
			if p > 0 {
				if k := spanLength(jw, cfg.TickSec, tick, ticks, phaseIdx); k > 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					draws := 0
					for _, ts := range phase.CPU.Tasks {
						draws += ts.Count
					}
					sp := ffSpan{k: k, p: p, dt: cfg.TickSec, jitterDraws: draws, totalMemMB: e.plat.Memory.TotalMB}
					sp.ipc, sp.cachePI, sp.branchPI = ff.rates()
					if err := ff.runSpan(&sp, rng, powerModel, thermalModel, timingModel,
						prof, &totInstr, &totCycles, &totCacheMiss, &totBranchMiss); err != nil {
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

	tr, err := prof.Trace()
	if err != nil {
		return nil, err
	}
	mean := func(metric string) float64 { return tr.MustSeries(metric).Mean() }
	agg := Aggregates{
		Name:           w.Name,
		RuntimeSec:     duration,
		InstrCount:     totInstr,
		IPC:            safeDiv(totInstr, totCycles),
		CacheMPKI:      safeDiv(totCacheMiss, totInstr) * 1000,
		BranchMPKI:     safeDiv(totBranchMiss, totInstr) * 1000,
		AvgCPULoad:     mean(profiler.MetricCPULoad),
		AvgGPULoad:     mean(profiler.MetricGPULoad),
		AvgShadersBusy: mean(profiler.MetricShadersBusy),
		AvgGPUBusBusy:  mean(profiler.MetricGPUBusBusy),
		AvgAIELoad:     mean(profiler.MetricAIELoad),
		AvgUsedMemFrac: mean(profiler.MetricUsedMem),
		AvgUsedMemMB:   mean(profiler.MetricUsedMemMB),
		PeakUsedMemMB:  tr.MustSeries(profiler.MetricUsedMemMB).Max(),
		AvgPowerW:      powerModel.AveragePowerW(),
		EnergyJ:        powerModel.EnergyJ(),
		PeakCPUTempC:   tr.MustSeries(profiler.MetricCPUTempC).Max(),
	}
	// Absent clusters sample no load series and keep a zero load.
	//mblint:ignore ctxloop bounded over at most NumClusters CPU clusters after the tick loop; the run is complete
	for _, cs := range clusters {
		agg.ClusterLoad[cs.kind] = mean(e.names[cs.kind].load)
	}

	res := &Result{Workload: w.Name, Trace: tr, Agg: agg}
	res.TimingNotes, res.TimingDegraded = timingModel.TimingReport()
	return res, nil
}

// sampleMissProfile refreshes a cluster's measured memory/branch behaviour
// by driving sampled synthetic streams through the cache hierarchy and
// branch predictor.
func (e *Engine) sampleMissProfile(cs *clusterState, cp workload.CPUPhase) cpu.MissProfile {
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
	return miss
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
