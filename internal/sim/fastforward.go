package sim

import (
	"fmt"

	"mobilebench/internal/mem"
	"mobilebench/internal/power"
	"mobilebench/internal/profiler"
	"mobilebench/internal/soc"
	"mobilebench/internal/thermal"
	"mobilebench/internal/workload"
	"mobilebench/internal/xrand"
)

// Phase fast-forwarding. The tick loop's expensive work — scheduling, DVFS,
// cache/branch stream sampling, GPU texture sampling — settles quickly
// within a phase, but not to a fixed point: the schedutil feedback loop
// (frequency -> realized utilization -> next frequency) locks into a small
// limit cycle over adjacent OPPs (period 2 in practice), and the sampled
// miss profiles keep fluctuating with sampling noise around a stationary
// per-phase mean. Steady state here therefore means *periodic* frequencies
// plus *stationary* counter rates, and the fast-forward path exploits both:
//
//   - Cycle tiling. Once every cluster's OPP-quantized frequency exactly
//     reproduces the value it had p ticks earlier (p <= ffMaxPeriod) for
//     ffCycleConfirm full cycles, the last p exact ticks are taken as one
//     period of the steady state. The remaining span of the phase repeats
//     them: frozen metrics are tiled into the trace in cycle order
//     (trace.Series.AppendCycle), and the cheap evolving models (memory
//     lag, power accumulation, thermal RC) step per tick with the
//     cycle-position inputs, so frequency-driven oscillation in power and
//     load survives the jump.
//   - Window-mean rates. Cumulative counters (instructions, cycles, cache
//     and branch misses) advance at the mean per-tick rate measured over
//     the phase's exact ticks after a warm-up of ffWarmupRefreshes refresh
//     periods. Freezing a single tick's delta would bake one draw of the
//     miss-sampling noise (tens of percent) into the whole span; the
//     window mean estimates the stationary rate with noise/sqrt(draws).
//   - Decimated refresh stops. A jump never skips more than
//     ffSpanRefreshPeriods refresh periods: it lands just short of a
//     refresh tick, which then executes exactly — re-sampling the
//     cache/branch streams, re-polluting the SLC, refreshing the replay
//     ring — before the next jump. The rate window keeps folding these
//     fresh draws, so its estimate of the stationary rates tightens as the
//     phase progresses instead of freezing early-phase noise.
//
// The parent RNG stream is advanced in stride (xrand.SkipNorm) past the
// per-tick demand-noise draws, so every phase after a jump sees the exact
// noise sequence it would have seen tick-by-tick, and xrand.Split-derived
// child streams (which never consume parent state) are unaffected.
//
// The exact path (Config.FastForward == false) is untouched and remains
// byte-identical; fast-forwarded runs drift only where the skipped work
// would have re-sampled (miss-profile refreshes, SLC pollution, texture
// sampling, per-tick demand noise in placement), which the differential
// suite pins with per-metric tolerances.

const (
	// ffMaxPeriod is the longest governor limit cycle the detector tracks.
	// Schedutil's down-rate smoothing plus OPP quantization yields period-1
	// (parked) or period-2 (flip-flopping between adjacent OPPs) cycles;
	// 4 leaves headroom for compound cycles without tracking real history.
	ffMaxPeriod = 4
	// ffCycleConfirm is how many full cycles of exact reproduction are
	// required before the period counts as established.
	ffCycleConfirm = 2
	// ffMinRefreshes is how many miss-profile refresh points must pass
	// in-phase before a jump, so the rate window averages over several
	// independent re-samples of the cache/branch streams.
	ffMinRefreshes = 4
	// ffWarmupRefreshes is how many refresh periods at the start of a phase
	// are excluded from the rate window (cache warm-up, DVFS ramp).
	ffWarmupRefreshes = 2
	// ffSpanRefreshPeriods bounds a single jump to this many refresh
	// periods, so every ffSpanRefreshPeriods-th miss-profile refresh still
	// executes exactly and the sampled statistics keep re-drawing at a
	// decimated cadence across long phases.
	ffSpanRefreshPeriods = 4
	// ffMinJumpTicks is the minimum span worth jumping; shorter remainders
	// run exactly.
	ffMinJumpTicks = 8
	// ffDecayRelTol is the relative per-tick GPU/AIE frequency delta below
	// which their geometric decay counts as converged (idle decay approaches
	// the floor asymptotically and never reaches exact equality, unlike the
	// OPP-quantized CPU clusters).
	ffDecayRelTol = 1e-3
)

// ffFreqState is the frequency snapshot compared across ticks for period
// detection.
type ffFreqState struct {
	cpu [soc.NumClusters]float64
	gpu float64
	aie float64
}

// match reports whether two snapshots are the same operating point: CPU
// cluster frequencies are OPP-quantized, so exact equality is the signal;
// GPU/AIE decay geometrically and compare within ffDecayRelTol.
func (a *ffFreqState) match(b *ffFreqState) bool {
	for i := range a.cpu {
		if a.cpu[i] != b.cpu[i] {
			return false
		}
	}
	return relDelta(a.gpu, b.gpu) < ffDecayRelTol && relDelta(a.aie, b.aie) < ffDecayRelTol
}

// ffState accumulates per-phase steady-state evidence across exact ticks.
type ffState struct {
	phaseIdx   int
	phaseStart int

	// nExact counts exact ticks executed this run. Jumps leave gaps in the
	// tick numbering, so every fast-forward ring (hist here, the tick
	// record, the input ring) indexes by this contiguous counter instead:
	// the tick after a jump is still the recorded cycle's successor.
	nExact int

	// hist holds the last ffMaxPeriod frequency snapshots, indexed
	// nExact % ffMaxPeriod; histLen counts snapshots recorded this phase.
	hist    [ffMaxPeriod]ffFreqState
	histLen int
	// cycleStable[p-1] counts consecutive ticks whose snapshot matched the
	// snapshot from p ticks earlier.
	cycleStable [ffMaxPeriod]int

	refreshes int

	// Rate estimators. Cycle counts are periodic and replayed exactly from
	// the ring; instructions and misses depend on the noisily re-sampled
	// miss profiles, so a span derives them from smoothed ratios instead:
	// instr = cycles x IPC, misses = instr x misses-per-instr. The ratios
	// are EWMA'd over the fresh draw at each exact refresh tick
	// (post-warm-up), which both averages the ~tens-of-percent sampling
	// noise and tracks the slow cache-warming trend across a long phase.
	rateDraws                          int
	ewmaIPC, ewmaCachePI, ewmaBranchPI float64
}

// ffRateAlpha is the EWMA weight per refresh draw (~6-draw half-life).
const ffRateAlpha = 0.12

func newFFState() *ffState {
	return &ffState{phaseIdx: -1}
}

// resetPhase restarts evidence gathering at a phase boundary.
func (st *ffState) resetPhase(tick, phaseIdx int) {
	st.phaseIdx = phaseIdx
	st.phaseStart = tick
	st.histLen = 0
	st.cycleStable = [ffMaxPeriod]int{}
	st.refreshes = 0
	st.rateDraws = 0
	st.ewmaIPC, st.ewmaCachePI, st.ewmaBranchPI = 0, 0, 0
}

// idx returns the contiguous index of the exact tick currently executing
// (the slot its ring entries land in).
func (st *ffState) idx() int { return st.nExact }

// observe folds one completed exact tick's state (the tick's frequency
// snapshot and counter deltas) and returns the detected steady-state period
// p >= 1, or 0 while the phase has not proven itself steady.
func (st *ffState) observe(tick, phaseIdx int, cur ffFreqState, dInstr, dCycles, dCacheMiss, dBranchMiss float64) int {
	if phaseIdx != st.phaseIdx {
		st.resetPhase(tick, phaseIdx)
	}

	for p := 1; p <= ffMaxPeriod; p++ {
		if p <= st.histLen && cur.match(&st.hist[(st.nExact-p)%ffMaxPeriod]) {
			st.cycleStable[p-1]++
		} else {
			st.cycleStable[p-1] = 0
		}
	}
	st.hist[st.nExact%ffMaxPeriod] = cur
	st.nExact++
	st.histLen++

	if tick%refreshTicks == 0 {
		st.refreshes++
		if tick-st.phaseStart >= ffWarmupRefreshes*refreshTicks {
			ipc, cpi, bpi := 0.0, 0.0, 0.0
			if dCycles > 0 && dInstr > 0 {
				ipc = dInstr / dCycles
				cpi = dCacheMiss / dInstr
				bpi = dBranchMiss / dInstr
			}
			if st.rateDraws == 0 {
				st.ewmaIPC, st.ewmaCachePI, st.ewmaBranchPI = ipc, cpi, bpi
			} else {
				st.ewmaIPC += ffRateAlpha * (ipc - st.ewmaIPC)
				st.ewmaCachePI += ffRateAlpha * (cpi - st.ewmaCachePI)
				st.ewmaBranchPI += ffRateAlpha * (bpi - st.ewmaBranchPI)
			}
			st.rateDraws++
		}
	}

	if st.refreshes < ffMinRefreshes || st.rateDraws < 2 {
		return 0
	}
	for p := 1; p <= ffMaxPeriod; p++ {
		n := ffCycleConfirm * p
		if n < ffMaxPeriod {
			n = ffMaxPeriod
		}
		if st.cycleStable[p-1] >= n {
			return p
		}
	}
	return 0
}

// rates returns the smoothed counter ratios a span advances with.
func (st *ffState) rates() (ipc, cachePI, branchPI float64) {
	return st.ewmaIPC, st.ewmaCachePI, st.ewmaBranchPI
}

func relDelta(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	if m == 0 {
		return d
	}
	return d / m
}

// spanLength returns how many ticks after tick can be fast-forwarded while
// staying inside the current phase, and short of the next decimated
// refresh stop (which must execute exactly to re-draw sampled statistics).
// 0 means the jump is not worth it.
func spanLength(jw workload.Workload, dt float64, tick, ticks, phaseIdx int) int {
	// Last tick of the phase: estimate from the accumulated durations, then
	// let phaseIndexAt (the tick loop's authority) confirm, stepping down
	// over any float edge.
	endT := 0.0
	for i := 0; i <= phaseIdx && i < len(jw.Phases); i++ {
		endT += jw.Phases[i].Duration
	}
	last := int(endT / dt)
	if last > ticks-1 {
		last = ticks - 1
	}
	for last > tick && phaseIndexAt(jw, (float64(last)+0.5)*dt) != phaseIdx {
		last--
	}
	// Land just short of the next refresh stop, so the loop resumes exactly
	// on a tick where the miss profiles re-sample.
	stop := ffSpanRefreshPeriods * refreshTicks
	if kStop := stop - (tick+1)%stop; tick+kStop < last {
		last = tick + kStop
	}
	k := last - tick
	if k < ffMinJumpTicks {
		return 0
	}
	return k
}

// ffEvolving lists the metrics that keep changing across a fast-forwarded
// span (cumulative counters, first-order memory lag, thermal RC, energy);
// everything else is tiled from the steady cycle's last exact values.
// runSpan must emit exactly this set each span tick — Profiler.Trace's
// alignment check fails the run otherwise, so the two cannot silently
// drift apart.
var ffEvolving = map[string]bool{
	profiler.MetricUsedMem:     true,
	profiler.MetricWorkloadMem: true,
	"mem.used_mb":              true,
	"mem.workload_mb":          true,
	"mem.gpu_mb":               true,
	"mem.heap_mb":              true,
	"mem.media_mb":             true,
	"mem.free_mb":              true,
	"cpu.total_instr":          true,
	"cpu.total_cycles":         true,
	"energy.total_j":           true,
	"thermal.cpu_c":            true,
	"thermal.gpu_c":            true,
	"thermal.soc_c":            true,
	"thermal.skin_c":           true,
	"thermal.cpu_throttled":    true,
	profiler.MetricCacheMPKI:   true,
	profiler.MetricBranchMPKI:  true,
}

// tickRecord captures every emitted metric's value over the last
// ffMaxPeriod exact ticks (a ring indexed by the contiguous exact-tick
// counter, ffState.idx), in first-emitted order, so a span can tile the
// frozen ones in cycle order.
type tickRecord struct {
	idx   map[string]int
	names []string
	vals  [ffMaxPeriod][]float64
	cur   int
}

func newTickRecord() *tickRecord {
	return &tickRecord{idx: make(map[string]int, 200)}
}

// begin selects the ring slot the coming exact tick's samples land in.
func (r *tickRecord) begin(exactIdx int) { r.cur = exactIdx % ffMaxPeriod }

func (r *tickRecord) set(name string, v float64) {
	i, ok := r.idx[name]
	if !ok {
		i = len(r.names)
		r.idx[name] = i
		r.names = append(r.names, name)
		for s := range r.vals {
			r.vals[s] = append(r.vals[s], 0)
		}
	}
	r.vals[r.cur][i] = v
}

// cycleVals collects one metric's values over the steady cycle's p ticks in
// span order: the first span tick continues the cycle position after exact
// index last, i.e. the position of exact index last-p+1. out is reused
// scratch.
func (r *tickRecord) cycleVals(i, last, p int, out []float64) []float64 {
	out = out[:0]
	for j := 1; j <= p; j++ {
		out = append(out, r.vals[(last-p+j)%ffMaxPeriod][i])
	}
	return out
}

// tickEmitter sends one counter sample to the trace profiler and, when
// Config.FastForward is on, to the fast-forward tick record. On the exact
// path it is exactly one Profiler.Sample call per sample.
type tickEmitter struct {
	prof *profiler.Profiler
	rec  *tickRecord
}

func (em *tickEmitter) sample(name string, v float64) {
	em.prof.Sample(name, v)
	if em.rec != nil {
		em.rec.set(name, v)
	}
}

// fillFrozen tiles k span ticks of every frozen metric from its steady-cycle
// values into the trace; last is the final exact tick's contiguous index, p
// the cycle period.
func (em *tickEmitter) fillFrozen(k, last, p int) {
	var scratch [ffMaxPeriod]float64
	for i, name := range em.rec.names {
		if ffEvolving[name] {
			continue
		}
		cyc := em.rec.cycleVals(i, last, p, scratch[:0])
		em.prof.SeriesOf(name).AppendCycle(cyc, k)
	}
}

// ffTickIn is one cycle position's model inputs and per-tick aggregate
// contributions, captured on the exact tick and replayed across the span.
type ffTickIn struct {
	cpuLoad, gpuLoad, shadersBusy, gpuBusBusy, aieLoad float64
	clusterLoad                                        [soc.NumClusters]float64
	// cycles is the tick's CPU cycle count — periodic with the governor's
	// limit cycle (utilization x frequency), so it replays exactly.
	cycles    float64
	footprint mem.Footprint
	powerIn   power.Input
	heat      [thermal.NumNodes]float64
}

// ffSpan carries everything a fast-forwarded span replays.
type ffSpan struct {
	k    int // span length in ticks
	p    int // steady-state cycle period
	last int // contiguous exact-tick index of the final exact tick
	dt   float64
	// jitterDraws is how many demand-noise normals the exact tick loop
	// would draw per tick in this phase (one per task instance).
	jitterDraws int
	// Smoothed counter ratios (ffState.rates): per-tick instructions are
	// cycles x ipc, misses are instructions x the per-instr rates.
	ipc, cachePI, branchPI float64
	// ring holds the last ffMaxPeriod exact ticks' inputs, indexed
	// exactIdx % ffMaxPeriod; the span replays positions last-p+1 .. last.
	ring       *[ffMaxPeriod]ffTickIn
	totalMemMB float64
}

// runSpan executes k fast-forwarded ticks: the parent RNG advances in
// stride past the demand-noise draws, the cheap evolving models (memory
// lag, power accumulation, thermal RC) step per tick with cycle-position
// inputs, cumulative counters advance at the window-mean rate, and the
// evolving metric set is emitted per tick while everything frozen was
// tiled up front.
func runSpan(sp *ffSpan, rng *xrand.Rand, pm *power.Model, tm *thermal.Model, timing TimingModel,
	em *tickEmitter, agg *Aggregates, totInstr, totCycles, totCacheMiss, totBranchMiss *float64) error {
	em.fillFrozen(sp.k, sp.last, sp.p)

	for i := 1; i <= sp.k; i++ {
		// Span tick i replays exact index sp.last-p+1+((i-1) mod p), the
		// same position in the governor's limit cycle.
		in := &sp.ring[(sp.last-sp.p+1+(i-1)%sp.p)%ffMaxPeriod]

		rng.SkipNorm(sp.jitterDraws)
		memRes, err := timing.MemStep(in.footprint, sp.dt)
		if err != nil {
			return fmt.Errorf("sim: timing model in fast-forward span: %w", err)
		}
		pm.Step(in.powerIn)
		th := tm.Step(in.heat, sp.dt)

		ins := in.cycles * sp.ipc
		*totInstr += ins
		*totCycles += in.cycles
		*totCacheMiss += ins * sp.cachePI
		*totBranchMiss += ins * sp.branchPI

		agg.AvgCPULoad += in.cpuLoad
		agg.AvgGPULoad += in.gpuLoad
		agg.AvgShadersBusy += in.shadersBusy
		agg.AvgGPUBusBusy += in.gpuBusBusy
		agg.AvgAIELoad += in.aieLoad
		for c := range in.clusterLoad {
			agg.ClusterLoad[c] += in.clusterLoad[c]
		}

		em.sample(profiler.MetricUsedMem, memRes.UsedFrac)
		em.sample(profiler.MetricWorkloadMem, memRes.WorkloadFrac)
		em.sample("mem.used_mb", memRes.UsedMB)
		em.sample("mem.workload_mb", memRes.WorkloadMB)
		em.sample("mem.gpu_mb", memRes.FootprintByUse.GPUMB)
		em.sample("mem.heap_mb", memRes.FootprintByUse.CPUHeapMB)
		em.sample("mem.media_mb", memRes.FootprintByUse.MediaMB)
		em.sample("mem.free_mb", sp.totalMemMB-memRes.UsedMB)
		em.sample("cpu.total_instr", *totInstr)
		em.sample("cpu.total_cycles", *totCycles)
		em.sample("energy.total_j", pm.EnergyJ())
		em.sample("thermal.cpu_c", th.NodeC[thermal.NodeCPU])
		em.sample("thermal.gpu_c", th.NodeC[thermal.NodeGPU])
		em.sample("thermal.soc_c", th.NodeC[thermal.NodeSoC])
		em.sample("thermal.skin_c", th.SkinC)
		em.sample("thermal.cpu_throttled", boolToFloat(th.Throttled[thermal.NodeCPU]))
		em.sample(profiler.MetricCacheMPKI, safeDiv(*totCacheMiss, *totInstr)*1000)
		em.sample(profiler.MetricBranchMPKI, safeDiv(*totBranchMiss, *totInstr)*1000)

		if th.NodeC[thermal.NodeCPU] > agg.PeakCPUTempC {
			agg.PeakCPUTempC = th.NodeC[thermal.NodeCPU]
		}
		agg.AvgUsedMemFrac += memRes.UsedFrac
		agg.AvgUsedMemMB += memRes.UsedMB
		if memRes.UsedMB > agg.PeakUsedMemMB {
			agg.PeakUsedMemMB = memRes.UsedMB
		}
	}
	return nil
}
