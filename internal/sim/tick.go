package sim

import (
	"context"
	"fmt"

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

// The tick as named stages: RunContext calls schedule, cpuClusters,
// gpuSLC, aieEngine, memStorage, powerThermal and sampleSystem (then
// fastForward when fast-forwarding) in that order. It is the order of
// every RNG draw and of tick 0's samples, which fix the trace's metric
// and checkpoint bytes, so no draw or sample may move across a stage.
// Each stage is its own frame in a CPU profile (aieEngine is kept out of
// line for that).

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
	// re-targets it per phase. It is kept across runs, so the Zipf tables
	// it holds stay alive for the next run (xrand keeps a shared table
	// only while some generator holds it).
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
			// the Zipf tables they hold stay alive for the next run.
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
		// The GPU model's texture RNG is per-run; newTickState re-seeds it via
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
	// re-seeded per run by newTickState instead, because its reset needs the
	// run's RNG stream.
	m.powerM.Reset()
	m.thermalM.Reset()
	m.aieM.Reset()
	return m.timingM.Reset()
}

// clusterState is one CPU cluster's models and its current tick.
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

// sysMetric is a counter the tick samples outside the cluster loop:
// powerThermal's, the system counters and the span's. A run samples each
// through the profiler slot newTickState resolves for it.
type sysMetric int

const (
	mPowerTotalW sysMetric = iota
	mPowerCPUW
	mPowerLittleW
	mPowerMidW
	mPowerBigW
	mPowerGPUW
	mPowerAIEW
	mPowerDRAMW
	mPowerStorageW
	mEnergyTotalJ
	mCPUTempC
	mThermalGPUC
	mThermalSoCC
	mThermalSkinC
	mThermalCPUThrottled
	mCPULoad
	mGPULoad
	mShadersBusy
	mGPUBusBusy
	mAIELoad
	mUsedMem
	mWorkloadMem
	mStorageUtil
	mUsedMemMB
	mMemWorkloadMB
	mMemGPUMB
	mMemHeapMB
	mMemMediaMB
	mGPUUtil
	mGPUFreqMHz
	mGPUFPS
	mGPUTexMissRatio
	mGPUBusBytes
	mAIEUtil
	mAIEFreqMHz
	mAIECPUFallback
	mStorageBytes
	mStorageReadMBps
	mStorageWriteMBps
	mStorageIOPS
	mMemFreeMB
	mGPUFrameTimeMS
	mGPUDrawcallRate
	mSLCAccesses
	mSLCMisses
	mL3Accesses
	mL3Misses
	mCPUTotalInstr
	mCPUTotalCycles
	mInstrRate
	mIPC
	mCacheMPKI
	mBranchMPKI
	numSysMetrics
)

// sysMetricNames names each sysMetric.
var sysMetricNames = [numSysMetrics]string{
	mPowerTotalW:         "power.total_w",
	mPowerCPUW:           "power.cpu_w",
	mPowerLittleW:        "power.little_w",
	mPowerMidW:           "power.mid_w",
	mPowerBigW:           "power.big_w",
	mPowerGPUW:           "power.gpu_w",
	mPowerAIEW:           "power.aie_w",
	mPowerDRAMW:          "power.dram_w",
	mPowerStorageW:       "power.storage_w",
	mEnergyTotalJ:        "energy.total_j",
	mCPUTempC:            profiler.MetricCPUTempC,
	mThermalGPUC:         "thermal.gpu_c",
	mThermalSoCC:         "thermal.soc_c",
	mThermalSkinC:        "thermal.skin_c",
	mThermalCPUThrottled: "thermal.cpu_throttled",
	mCPULoad:             profiler.MetricCPULoad,
	mGPULoad:             profiler.MetricGPULoad,
	mShadersBusy:         profiler.MetricShadersBusy,
	mGPUBusBusy:          profiler.MetricGPUBusBusy,
	mAIELoad:             profiler.MetricAIELoad,
	mUsedMem:             profiler.MetricUsedMem,
	mWorkloadMem:         profiler.MetricWorkloadMem,
	mStorageUtil:         profiler.MetricStorageUtil,
	mUsedMemMB:           profiler.MetricUsedMemMB,
	mMemWorkloadMB:       "mem.workload_mb",
	mMemGPUMB:            "mem.gpu_mb",
	mMemHeapMB:           "mem.heap_mb",
	mMemMediaMB:          "mem.media_mb",
	mGPUUtil:             "gpu.util",
	mGPUFreqMHz:          "gpu.freq_mhz",
	mGPUFPS:              "gpu.fps",
	mGPUTexMissRatio:     "gpu.tex_miss_ratio",
	mGPUBusBytes:         "gpu.bus_bytes",
	mAIEUtil:             "aie.util",
	mAIEFreqMHz:          "aie.freq_mhz",
	mAIECPUFallback:      "aie.cpu_fallback",
	mStorageBytes:        "storage.bytes",
	mStorageReadMBps:     "storage.read_mbps",
	mStorageWriteMBps:    "storage.write_mbps",
	mStorageIOPS:         "storage.iops",
	mMemFreeMB:           "mem.free_mb",
	mGPUFrameTimeMS:      "gpu.frame_time_ms",
	mGPUDrawcallRate:     "gpu.drawcall_rate",
	mSLCAccesses:         "slc.accesses",
	mSLCMisses:           "slc.misses",
	mL3Accesses:          "l3.accesses",
	mL3Misses:            "l3.misses",
	mCPUTotalInstr:       "cpu.total_instr",
	mCPUTotalCycles:      "cpu.total_cycles",
	mInstrRate:           profiler.MetricInstrRate,
	mIPC:                 profiler.MetricIPC,
	mCacheMPKI:           profiler.MetricCacheMPKI,
	mBranchMPKI:          profiler.MetricBranchMPKI,
}

// tickIn is one tick's model inputs. Fast-forwarding keeps the last
// ffMaxPeriod of them and replays them across a span.
type tickIn struct {
	// cycles is the tick's CPU cycle count — periodic with the governor's
	// limit cycle (utilization x frequency), so it replays exactly.
	cycles    float64
	footprint mem.Footprint
	// powerIn is filled by the stage that produces each input: CPU
	// clusters and their DRAM traffic, the GPU's load and its traffic, the
	// AIE's load and the storage utilization.
	powerIn power.Input
}

// tickState is one run in progress: its models, random stream, profiler
// and running totals, and what the current tick's stages hand each other.
type tickState struct {
	e     *Engine
	m     *runModels
	rng   *xrand.Rand
	prof  *profiler.Profiler
	jw    workload.Workload // the workload with this run's jittered phases
	dt    float64
	ticks int

	totInstr, totCycles, totCacheMiss, totBranchMiss float64
	// The latest GPU, AIE and storage results. Until their stages run they
	// are last tick's: the feedback the scheduler and the CPU stage read.
	gpuRes        gpu.Result
	aieRes        aie.Result
	ioRes         mem.IOResult
	tasks         []sched.Task // the scheduler's scratch, reused every tick
	slcPolluteIdx int          // the phase the SLC pollution stream targets
	ff            *ffState     // set when fast-forwarding
	ahead         *gpuAhead    // set in an exact run

	// The run's profiler slots, resolved once by newTickState: the
	// sysMetrics and each present cluster's counters.
	sys          [numSysMetrics]profiler.Slot
	clusterSlots [soc.NumClusters]clusterMetrics[profiler.Slot]

	// The current tick: its number, phase and inputs, the instructions
	// retired and the summed per-core load, the cumulative misses at its
	// entry (fast-forward measures the tick's deltas against them), and
	// the memory, power and thermal results.
	tick, phaseIdx            int
	phase                     *workload.Phase
	placement                 sched.Placement
	in                        tickIn
	instr, cpuLoad            float64
	cacheMissIn, branchMissIn float64
	memRes                    mem.Result
	pw                        power.Breakdown
	th                        thermal.State
}

// newTickState prepares run run of w on m: the run's random stream, its
// jittered phases, its GPU model seed and a profiler sized for its ticks.
func (e *Engine) newTickState(m *runModels, w workload.Workload, run int) *tickState {
	rng := xrand.New(e.cfg.Seed).Split(xrand.HashString(w.Name)).Split(uint64(run) + 1)
	phases := make([]workload.Phase, len(w.Phases))
	copy(phases, w.Phases)
	for i := range phases {
		phases[i].Duration = rng.Jitter(phases[i].Duration, runtimeJitterRel)
	}
	jw := workload.Workload{Name: w.Name, Suite: w.Suite, Target: w.Target, Phases: phases}
	m.gpuM.ResetSeed(rng.Split(0x91)) // Split leaves the parent untouched
	dt := float64(tickSec)
	ticks := max(int(jw.Duration()/dt), 1)
	// Series pre-sized to the tick count grow exactly once.
	st := &tickState{e: e, m: m, rng: rng, prof: profiler.New(dt, ticks),
		jw: jw, dt: dt, ticks: ticks, slcPolluteIdx: -1}
	// Resolving a slot creates no series, so the trace's metric order
	// stays tick 0's sampling order.
	for i, name := range sysMetricNames {
		st.sys[i] = st.prof.Slot(name)
	}
	for _, cs := range m.clusters {
		st.clusterSlots[cs.kind] = mapClusterMetrics(&e.names[cs.kind], st.prof.Slot)
	}
	return st
}

// put samples a sysMetric through its slot.
func (st *tickState) put(m sysMetric, v float64) { st.prof.Put(st.sys[m], v) }

// schedule enters tick: it looks up the tick's phase, builds the task set
// (the phase's threads with demand noise, plus the demand the AIE and the
// storage stack bounced back to the CPU last tick) and places it.
func (st *tickState) schedule(tick int) {
	st.tick = tick
	st.phaseIdx = st.jw.PhaseIndex((float64(tick) + 0.5) * st.dt)
	st.phase = &st.jw.Phases[st.phaseIdx]
	st.in = tickIn{powerIn: power.Input{DTSec: st.dt}}
	st.tasks = st.tasks[:0]
	for _, ts := range st.phase.CPU.Tasks {
		for i := 0; i < ts.Count; i++ {
			d := st.rng.Jitter(ts.Demand, noiseRel)
			st.tasks = append(st.tasks, sched.Task{Demand: d, Affinity: ts.Affinity})
		}
	}
	// Demand bounced back to the CPU, in chunks no larger than a Big core.
	for _, left := range [...]float64{st.aieRes.CPUFallbackDemand, st.ioRes.CPUDemand} {
		for ; left > 0; left -= min(left, 0.9) {
			st.tasks = append(st.tasks, sched.Task{Demand: min(left, 0.9)})
		}
	}
	st.placement = st.m.scheduler.Place(st.tasks)
}

// cpuClusters runs the CPU clusters: each governor picks a frequency for
// the placed utilization, and an active cluster re-samples its miss profile
// (address generation, cache hierarchy, branch predictor) on a phase change
// and every refreshTicks, and turns it into IPC under last tick's GPU bus
// contention. A first pass samples the active clusters' IPC and MPKI; the
// second, the idle clusters' zeros and then every cluster's other counters.
func (st *tickState) cpuClusters() {
	in, phase, prof := &st.in, st.phase, st.prof
	st.cacheMissIn, st.branchMissIn = st.totCacheMiss, st.totBranchMiss
	contention := cpu.Contention{GPUBusLoad: st.gpuRes.BusBusy, MemBandwidthLoad: 0.5 * st.gpuRes.BusBusy}
	st.instr, st.cpuLoad = 0, 0
	for _, cs := range st.m.clusters {
		load := st.placement.Clusters[cs.kind]

		// DVFS from the utilization seen this tick.
		cs.freqHz = cs.gov.Next(cs.cl, cs.freqHz, load.Util)

		// Realized utilization grows when the governor runs the
		// cluster below peak frequency: the same work occupies more
		// of each second.
		util := load.Util
		if cs.freqHz > 0 {
			util = load.Util * cs.cl.MaxFreqHz / cs.freqHz
		}
		util = min(util, 1)

		cs.load = util * cs.freqHz / cs.cl.MaxFreqHz
		st.cpuLoad += cs.load * float64(cs.cl.NumCores)

		active := util > 1e-4
		if active && (cs.phaseIdx != st.phaseIdx || st.tick%refreshTicks == 0) {
			if cs.phaseIdx != st.phaseIdx {
				cs.stream.Reset(phase.CPU.Access,
					uint64(cs.kind)+1, st.rng.Split(uint64(st.phaseIdx)*16+uint64(cs.kind)))
				cs.branches.Reset(phase.CPU.Branches,
					st.rng.Split(uint64(st.phaseIdx)*64+uint64(cs.kind)+7))
				cs.phaseIdx = st.phaseIdx
			}
			cs.miss = sampleMissProfile(cs, phase.CPU)
		}
		cs.util, cs.ipc, cs.missPI = util, 0, 0
		for _, mpi := range cs.miss.MissesPerInstr {
			cs.missPI += mpi
		}
		if !active {
			continue
		}

		cs.ipc = cpu.IPC(cs.cl, phase.CPU.Mix, cs.miss, cs.pen, contention)
		cyc := util * cs.freqHz * float64(cs.cl.NumCores) * st.dt * phase.CPU.ComputeDuty
		ins := cyc * cs.ipc
		st.instr += ins
		in.cycles += cyc

		st.totCacheMiss += cs.missPI * ins
		st.totBranchMiss += cs.miss.BranchMissPerInstr * ins
		// The CPU's share of the DRAM traffic; gpuSLC adds the GPU's.
		in.powerIn.DRAMBytes += cs.miss.MissesPerInstr[3] * ins * 64

		nm := &st.clusterSlots[cs.kind]
		prof.Put(nm.ipc, cs.ipc)
		prof.Put(nm.cacheMPKI, cs.missPI*1000)
		prof.Put(nm.branchMPKI, cs.miss.BranchMissPerInstr*1000)
	}
	// Clusters that were idle this tick still need aligned samples.
	for _, cs := range st.m.clusters {
		nm := &st.clusterSlots[cs.kind]
		load := st.placement.Clusters[cs.kind]
		if cs.util <= 1e-4 {
			prof.Put(nm.ipc, 0)
			prof.Put(nm.cacheMPKI, 0)
			prof.Put(nm.branchMPKI, 0)
		}
		in.powerIn.Clusters[cs.kind] = power.ClusterInput{
			FreqHz: cs.freqHz, Util: cs.util, MaxFreqHz: cs.cl.MaxFreqHz, Cores: cs.cl.NumCores}
		prof.Put(nm.util, cs.util)
		prof.Put(nm.freqMHz, cs.freqHz/1e6)
		prof.Put(nm.load, cs.load)
		prof.Put(nm.activeCores, float64(load.ActiveCores))
		prof.Put(nm.overflow, load.Overflow)
		// Per-core views: cores within a cluster behave near
		// identically (the paper averages them for the same reason).
		for c := 0; c < cs.cl.NumCores; c++ {
			cn := &nm.core[c]
			prof.Put(cn.load, cs.load)
			prof.Put(cn.util, cs.util)
			prof.Put(cn.freqMHz, cs.freqHz/1e6)
			prof.Put(cn.ipc, cs.ipc)
			prof.Put(cn.cacheMPKI, cs.missPI*1000)
			prof.Put(cn.branchMPKI, cs.miss.BranchMissPerInstr*1000)
			for i := range cn.level {
				prof.Put(cn.level[i], cs.miss.MissesPerInstr[i])
			}
		}
		for i := range nm.level {
			prof.Put(nm.level[i], cs.miss.MissesPerInstr[i])
		}
		// DVFS residency: 1 when the tick ran at the top operating point.
		prof.Put(nm.topOPPFrac, boolToFloat(cs.freqHz >= cs.cl.MaxFreqHz-1))
	}
	st.totInstr += st.instr
	st.totCycles += in.cycles
}

// sampleMissProfile refreshes a cluster's measured memory/branch behaviour
// by driving sampled synthetic streams through the cache hierarchy and
// branch predictor.
func sampleMissProfile(cs *clusterState, cp workload.CPUPhase) cpu.MissProfile {
	var miss cpu.MissProfile
	if cp.Mix.LoadStoreFrac > 0 {
		counts := cs.stream.Batch(cs.hier, cacheSamples)
		for i := 0; i < 4; i++ {
			miss.MissesPerInstr[i] = float64(counts[i]) / cacheSamples * cp.Mix.LoadStoreFrac
		}
	}
	if cp.Mix.BranchFrac > 0 {
		wrong := cs.branches.Measure(cs.pred, branchSamples)
		miss.BranchMissPerInstr = float64(wrong) / branchSamples * cp.Mix.BranchFrac
	}
	return miss
}

// gpuSLC takes the tick's GPU result, from the helper in an exact run and
// stepped inline when fast-forwarding. The GPU's texture traffic flows
// through the SoC-wide system-level cache, displacing CPU lines; this is
// the mechanism behind the depressed IPC of graphics-heavy benchmarks
// (Section V-A).
func (st *tickState) gpuSLC() error {
	if st.ahead != nil {
		r, err := st.ahead.next()
		if err != nil {
			return err
		}
		st.gpuRes = r
	} else {
		st.gpuRes = st.m.gpuM.Step(st.phase.GPU, st.dt)
	}
	scene := &st.phase.GPU
	if scene.TextureWorkingSetMB > 0 && st.gpuRes.BusBusy > 0 {
		if st.slcPolluteIdx != st.phaseIdx {
			st.m.slcPollute.Reset(cache.AccessPattern{
				WorkingSetBytes: uint64(scene.TextureWorkingSetMB * 1024 * 1024),
				SequentialFrac:  0.6,
				ReuseSkew:       0.4,
			}, 23, st.rng.Split(uint64(st.phaseIdx)*131+5))
			st.slcPolluteIdx = st.phaseIdx
		}
		st.m.slcPollute.Pollute(st.m.slc, int(st.gpuRes.BusBusy*cacheSamples*0.5))
	}
	st.in.powerIn.GPULoad = st.gpuRes.Load
	st.in.powerIn.DRAMBytes += st.gpuRes.BytesMoved
	return nil
}

// aieEngine steps the AI engine over the tick's inference demand.
//
//go:noinline
func (st *tickState) aieEngine() {
	st.aieRes = st.m.aieM.Step(st.phase.AIE, st.dt)
	st.in.powerIn.AIELoad = st.aieRes.Load
}

// memStorage steps the timing backend: memory moves toward the phase's
// footprint, GPU textures included, and storage services the phase's IO.
func (st *tickState) memStorage() error {
	in := &st.in
	in.footprint = st.phase.Mem
	in.footprint.GPUMB += st.phase.GPU.TextureWorkingSetMB
	memRes, ioRes, err := st.m.timingM.Step(in.footprint, st.phase.IO, st.dt)
	if err != nil {
		return fmt.Errorf("sim: timing model at tick %d: %w", st.tick, err)
	}
	st.memRes, st.ioRes = memRes, ioRes
	in.powerIn.StorageUtil = ioRes.Util
	return nil
}

// powerThermal steps the power model on pin and the thermal RC network on
// the heat that power dissipates per node (observational counters: the
// paper's board never throttled). A span replays recorded inputs through
// it; the breakdown is a pure function of pin, so only energy and
// temperatures evolve.
func (st *tickState) powerThermal(pin *power.Input) {
	pw := st.m.powerM.Step(*pin)
	var heat [thermal.NumNodes]float64
	heat[thermal.NodeCPU] = pw.CPUW()
	heat[thermal.NodeGPU] = pw.GPU
	heat[thermal.NodeSoC] = pw.AIE + pw.DRAM + pw.Storage + pw.Base
	st.pw, st.th = pw, st.m.thermalM.Step(heat, st.dt)
}

// samplePowerThermal samples powerThermal's counters, for an exact tick
// and for a span tick alike.
func (st *tickState) samplePowerThermal() {
	pw, th := &st.pw, &st.th
	st.put(mPowerTotalW, pw.TotalW())
	st.put(mPowerCPUW, pw.CPUW())
	st.put(mPowerLittleW, pw.Cluster[soc.Little])
	st.put(mPowerMidW, pw.Cluster[soc.Mid])
	st.put(mPowerBigW, pw.Cluster[soc.Big])
	st.put(mPowerGPUW, pw.GPU)
	st.put(mPowerAIEW, pw.AIE)
	st.put(mPowerDRAMW, pw.DRAM)
	st.put(mPowerStorageW, pw.Storage)
	st.put(mEnergyTotalJ, st.m.powerM.EnergyJ())
	st.put(mCPUTempC, th.NodeC[thermal.NodeCPU])
	st.put(mThermalGPUC, th.NodeC[thermal.NodeGPU])
	st.put(mThermalSoCC, th.NodeC[thermal.NodeSoC])
	st.put(mThermalSkinC, th.SkinC)
	st.put(mThermalCPUThrottled, boolToFloat(th.Throttled[thermal.NodeCPU]))
}

// sampleSystem samples the tick's system counters. Their interleaving of
// CPU, GPU, memory, AIE, storage, cache, power and thermal counters is
// tick 0's metric order, so they stay one stage.
func (st *tickState) sampleSystem() {
	ph := st.phase
	gpuRes, aieRes, memRes, ioRes := &st.gpuRes, &st.aieRes, &st.memRes, &st.ioRes
	slc, l3 := st.m.slc.Stats(), st.m.l3.Stats()
	st.put(mCPULoad, st.cpuLoad/float64(st.e.plat.TotalCores()))
	st.put(mGPULoad, gpuRes.Load)
	st.put(mShadersBusy, gpuRes.ShadersBusy)
	st.put(mGPUBusBusy, gpuRes.BusBusy)
	st.put(mAIELoad, aieRes.Load)
	st.put(mUsedMem, memRes.UsedFrac)
	st.put(mWorkloadMem, memRes.WorkloadFrac)
	st.put(mStorageUtil, ioRes.Util)
	st.put(mUsedMemMB, memRes.UsedMB)
	st.put(mMemWorkloadMB, memRes.WorkloadMB)
	st.put(mMemGPUMB, memRes.FootprintByUse.GPUMB)
	st.put(mMemHeapMB, memRes.FootprintByUse.CPUHeapMB)
	st.put(mMemMediaMB, memRes.FootprintByUse.MediaMB)
	st.put(mGPUUtil, gpuRes.Util)
	st.put(mGPUFreqMHz, gpuRes.FreqHz/1e6)
	st.put(mGPUFPS, gpuRes.FPS)
	st.put(mGPUTexMissRatio, gpuRes.TexMissRatio)
	st.put(mGPUBusBytes, gpuRes.BytesMoved)
	st.put(mAIEUtil, aieRes.Util)
	st.put(mAIEFreqMHz, aieRes.FreqHz/1e6)
	st.put(mAIECPUFallback, aieRes.CPUFallbackDemand)
	st.put(mStorageBytes, ioRes.BytesMoved)
	st.put(mStorageReadMBps, ph.IO.SeqReadMBs+ph.IO.RandReadIOPS*4096/1e6)
	st.put(mStorageWriteMBps, ph.IO.SeqWriteMBs+ph.IO.RandWriteIOPS*4096/1e6)
	st.put(mStorageIOPS, ph.IO.RandReadIOPS+ph.IO.RandWriteIOPS)
	st.put(mMemFreeMB, st.e.plat.Memory.TotalMB-memRes.UsedMB)
	st.put(mGPUFrameTimeMS, frameTimeMS(gpuRes.FPS))
	st.put(mGPUDrawcallRate, gpuRes.FPS*ph.GPU.DrawCallsPerFrame)
	st.put(mSLCAccesses, float64(slc.Accesses))
	st.put(mSLCMisses, float64(slc.Misses))
	st.put(mL3Accesses, float64(l3.Accesses))
	st.put(mL3Misses, float64(l3.Misses))
	st.put(mCPUTotalInstr, st.totInstr)
	st.put(mCPUTotalCycles, st.totCycles)
	st.samplePowerThermal()
	st.put(mInstrRate, st.instr/st.dt)
	st.put(mIPC, safeDiv(st.instr, st.in.cycles))
	st.put(mCacheMPKI, safeDiv(st.totCacheMiss, st.totInstr)*1000)
	st.put(mBranchMPKI, safeDiv(st.totBranchMiss, st.totInstr)*1000)
}

// fastForward folds the exact tick just run into the steady-state detector
// and, once the phase has proven steady, runs the rest of it up to the next
// decimated refresh stop as a span. It returns the span's length, 0 for
// none. Cancellation is checked around every span, so even a span of
// thousands of ticks keeps the tick loop's ctxCheckTicks responsiveness.
func (st *tickState) fastForward(ctx context.Context) (int, error) {
	snap := ffFreqState{gpu: st.gpuRes.FreqHz, aie: st.aieRes.FreqHz}
	for _, cs := range st.m.clusters {
		snap.cpu[cs.kind] = cs.freqHz
	}
	p := st.ff.observe(st.tick, st.phaseIdx, &st.in, snap, st.instr,
		st.totCacheMiss-st.cacheMissIn, st.totBranchMiss-st.branchMissIn)
	k := 0
	if p > 0 {
		k = spanLength(st.jw, st.dt, st.tick, st.ticks, st.phaseIdx)
	}
	if k == 0 {
		return 0, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if err := st.span(k, p); err != nil {
		return 0, err
	}
	return k, ctx.Err()
}

// span fast-forwards k ticks of a steady phase with governor period p.
// Span tick i replays exact tick (i-1) mod p of the last p: the RNG skips
// its demand-noise draws, memory and the powerThermal stage step on its
// inputs, and the totals advance at the smoothed rates. The span samples
// those evolving series; tile extends every other one.
func (st *tickState) span(k, p int) error {
	ff, prof := st.ff, st.prof
	draws := 0
	for _, ts := range st.phase.CPU.Tasks {
		draws += ts.Count
	}
	for i := 1; i <= k; i++ {
		in := &ff.ins[(ff.nExact-p+(i-1)%p)%ffMaxPeriod]
		st.rng.SkipNorm(draws)
		memRes, err := st.m.timingM.MemStep(in.footprint, st.dt)
		if err != nil {
			return fmt.Errorf("sim: timing model in fast-forward span: %w", err)
		}
		st.powerThermal(&in.powerIn)

		ins := in.cycles * ff.ewmaIPC
		st.totInstr += ins
		st.totCycles += in.cycles
		st.totCacheMiss += ins * ff.ewmaCachePI
		st.totBranchMiss += ins * ff.ewmaBranchPI

		st.put(mUsedMem, memRes.UsedFrac)
		st.put(mWorkloadMem, memRes.WorkloadFrac)
		st.put(mUsedMemMB, memRes.UsedMB)
		st.put(mMemWorkloadMB, memRes.WorkloadMB)
		st.put(mMemGPUMB, memRes.FootprintByUse.GPUMB)
		st.put(mMemHeapMB, memRes.FootprintByUse.CPUHeapMB)
		st.put(mMemMediaMB, memRes.FootprintByUse.MediaMB)
		st.put(mMemFreeMB, st.e.plat.Memory.TotalMB-memRes.UsedMB)
		st.put(mCPUTotalInstr, st.totInstr)
		st.put(mCPUTotalCycles, st.totCycles)
		st.samplePowerThermal()
		st.put(mCacheMPKI, safeDiv(st.totCacheMiss, st.totInstr)*1000)
		st.put(mBranchMPKI, safeDiv(st.totBranchMiss, st.totInstr)*1000)
	}
	ff.tile(prof, k, p)
	return nil
}

// readOff freezes the trace and reads the run's aggregates off it: the
// averages are series means, the peaks series maxima, and the counters the
// run's final totals.
func (st *tickState) readOff() (*Result, error) {
	tr, err := st.prof.Trace()
	if err != nil {
		return nil, err
	}
	mean := func(metric string) float64 { return tr.MustSeries(metric).Mean() }
	agg := Aggregates{
		Name:           st.jw.Name,
		RuntimeSec:     st.jw.Duration(),
		InstrCount:     st.totInstr,
		IPC:            safeDiv(st.totInstr, st.totCycles),
		CacheMPKI:      safeDiv(st.totCacheMiss, st.totInstr) * 1000,
		BranchMPKI:     safeDiv(st.totBranchMiss, st.totInstr) * 1000,
		AvgCPULoad:     mean(profiler.MetricCPULoad),
		AvgGPULoad:     mean(profiler.MetricGPULoad),
		AvgShadersBusy: mean(profiler.MetricShadersBusy),
		AvgGPUBusBusy:  mean(profiler.MetricGPUBusBusy),
		AvgAIELoad:     mean(profiler.MetricAIELoad),
		AvgUsedMemFrac: mean(profiler.MetricUsedMem),
		AvgUsedMemMB:   mean(profiler.MetricUsedMemMB),
		PeakUsedMemMB:  tr.MustSeries(profiler.MetricUsedMemMB).Max(),
		AvgPowerW:      st.m.powerM.AveragePowerW(),
		EnergyJ:        st.m.powerM.EnergyJ(),
		PeakCPUTempC:   tr.MustSeries(profiler.MetricCPUTempC).Max(),
	}
	// Absent clusters sample no load series and keep a zero load.
	for _, cs := range st.m.clusters {
		agg.ClusterLoad[cs.kind] = mean(st.e.names[cs.kind].load)
	}
	res := &Result{Workload: st.jw.Name, Trace: tr, Agg: agg}
	res.TimingNotes, res.TimingDegraded = st.m.timingM.TimingReport()
	return res, nil
}
