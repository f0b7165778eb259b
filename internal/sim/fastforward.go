package sim

import (
	"mobilebench/internal/profiler"
	"mobilebench/internal/soc"
	"mobilebench/internal/workload"
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
//     period of the steady state, and a span (tickState.span) repeats them:
//     the evolving models (memory lag, and power/thermal through the tick's
//     own powerThermal stage) step per tick on the cycle-position inputs,
//     and every series the span does not sample is tiled in cycle order
//     (trace.Series.AppendCycle) from its own values at those exact ticks.
//   - Smoothed rates. Cumulative counters (instructions, cache and branch
//     misses) advance at ratios EWMA'd over the phase's exact refresh ticks
//     after a warm-up of ffWarmupRefreshes refresh periods, since a single
//     tick's delta carries one draw of the miss-sampling noise (tens of
//     percent).
//   - Decimated refresh stops. A jump never skips more than
//     ffSpanRefreshPeriods refresh periods: it lands just short of a
//     refresh tick, which then executes exactly (re-sampling the
//     cache/branch streams, re-polluting the SLC, refreshing the replay
//     ring), so the rate estimate keeps folding fresh draws.
//
// The parent RNG stream is advanced in stride (xrand.SkipNorm) past the
// per-tick demand-noise draws, so every phase after a jump sees the exact
// noise sequence it would have seen tick-by-tick, and xrand.Split-derived
// child streams (which never consume parent state) are unaffected.
//
// The exact path (Config.FastForward == false) is byte-identical.
// Fast-forwarded loads, power, energy and runtime agree with it; the
// counter rates carry a systematic bias, partly from the rate window's
// weight on cold-cache refreshes: IPC reads low on every unit (3.6-11.3%
// in TestFastForwardDifferential) and cache MPKI mostly high.

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
	// tick numbering, so every fast-forward ring (hist, tickOf, ins)
	// indexes by this contiguous counter instead: the tick after a jump is
	// still the recorded cycle's successor.
	nExact int
	// tickOf and ins hold the last ffMaxPeriod exact ticks' tick numbers
	// and inputs, indexed nExact % ffMaxPeriod. Every trace series holds
	// tick t's sample at index t, so the tick numbers are all a span needs
	// to tile the frozen metrics from the trace itself.
	tickOf [ffMaxPeriod]int
	ins    [ffMaxPeriod]tickIn

	// hist holds the last ffMaxPeriod frequency snapshots, indexed
	// nExact % ffMaxPeriod; histLen counts snapshots recorded this phase.
	hist    [ffMaxPeriod]ffFreqState
	histLen int
	// cycleStable[p-1] counts consecutive ticks whose snapshot matched the
	// snapshot from p ticks earlier.
	cycleStable [ffMaxPeriod]int

	refreshes int

	// Rate estimators. Cycle counts are periodic and replayed exactly from
	// ins; instructions and misses depend on the noisily re-sampled
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

// observe folds one completed exact tick's state (its inputs, frequency
// snapshot and counter deltas) and returns the detected steady-state period
// p >= 1, or 0 while the phase has not proven itself steady.
func (st *ffState) observe(tick, phaseIdx int, in *tickIn, cur ffFreqState, dInstr, dCacheMiss, dBranchMiss float64) int {
	if phaseIdx != st.phaseIdx {
		st.resetPhase(tick, phaseIdx)
	}
	st.tickOf[st.nExact%ffMaxPeriod] = tick
	st.ins[st.nExact%ffMaxPeriod] = *in

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
			if in.cycles > 0 && dInstr > 0 {
				ipc = dInstr / in.cycles
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
	// let PhaseIndex (the tick loop's lookup) confirm, stepping down
	// over any float edge.
	endT := 0.0
	for i := 0; i <= phaseIdx && i < len(jw.Phases); i++ {
		endT += jw.Phases[i].Duration
	}
	last := int(endT / dt)
	if last > ticks-1 {
		last = ticks - 1
	}
	for last > tick && jw.PhaseIndex((float64(last)+0.5)*dt) != phaseIdx {
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

// tile extends every series still at its pre-span length (one sample per
// tick through the last exact tick) by k ticks, cycling over its own values
// at the last p exact ticks. The span's evolving series are already longer
// and are skipped; a series of any other length is left short as well, so
// Profiler.Trace rejects the run instead of hiding the misalignment.
func (st *ffState) tile(prof *profiler.Profiler, k, p int) {
	n := st.tickOf[(st.nExact-1)%ffMaxPeriod] + 1
	var cyc [ffMaxPeriod]float64
	for s := range prof.All() {
		if s.Len() != n {
			continue
		}
		for j := range p {
			cyc[j] = s.Values[st.tickOf[(st.nExact-p+j)%ffMaxPeriod]]
		}
		s.AppendCycle(cyc[:p], k)
	}
}
