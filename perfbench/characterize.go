package main

// characterize-exact and characterize-ff: the paper's pipeline through the
// public API. One op is mobilebench.CharacterizeContext over all 18
// analysis units followed by WriteReport; the exact workload ticks every
// phase with full traces (the paper's method), the fast-forward one
// completes steady phases analytically and keeps traces only for the
// analysis metric set.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mobilebench"
	"mobilebench/internal/sim"
	"mobilebench/internal/workload"
)

const (
	// charRuns is the runs simulated per unit. The paper averages three;
	// one keeps a pipeline short enough to repeat inside a run, and every
	// (unit, run) pair costs the same whichever run it is.
	charRuns    = 1
	charWorkers = 2
	setupReps   = 50
	// charFailCapMS stands in for a failed pipeline's latency.
	charFailCapMS = 600_000
)

// pinnedExactDigest is characterize-exact's result digest at seed 0, the
// simulator's default seed (see digestOf).
const pinnedExactDigest = "9e89860040156dd701b77c8676deba793f240f569ff8e584a8d4fc6df971a417"

func charOptions(seed uint64, ff bool) mobilebench.Options {
	o := mobilebench.Options{Runs: charRuns, Workers: charWorkers, Seed: simSeedFor(seed), TraceMode: mobilebench.TraceFull}
	if ff {
		o.FastForward = true
		o.TraceMode = mobilebench.TraceAuto
	}
	return o
}

func runCharacterize(ctx context.Context, o runOpts, ff bool) (*Report, error) {
	rep := newReport()
	opts := charOptions(o.seed, ff)
	simCfg := sim.Config{Seed: opts.Seed, FastForward: opts.FastForward, TraceMode: opts.TraceMode}

	// Set-up is what a characterization builds before its first tick: the
	// unit table and the simulation engine. Each sample starts from a
	// collected heap, so earlier samples' garbage does not land in it.
	var setups []float64
	var units []workload.Workload
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t := time.Now()
		units = mobilebench.AnalysisUnits()
		if _, err := sim.New(simCfg); err != nil {
			return nil, fmt.Errorf("building the engine: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	rep.EndToEnd["setup_s"] = median(setups)

	var (
		ops                   Latencies
		rates, fanRates       []float64
		runMax, idle, reportS []float64
		total                 Ledger
		firstDigest           string
		last                  time.Duration
		live                  float64
	)
	check := func(c *mobilebench.Characterization, reportSum []byte) {
		d, err := digestOf(c, reportSum)
		switch {
		case err != nil:
			rep.fail("digest: %v", err)
		case c.Degraded():
			rep.fail("characterization is degraded")
		case firstDigest == "":
			firstDigest = d
			rep.note("ipc_mape_pct %.4f %%  (fit error against the calibration targets, %d units)", ipcMAPE(c), len(c.Names()))
			if !ff && o.seed == 0 && d != pinnedExactDigest {
				rep.fail("digest %s differs from the pinned seed-0 digest %s", d, pinnedExactDigest)
			}
		case d != firstDigest:
			rep.fail("digest changed between repetitions: %s then %s", firstDigest, d)
		}
	}

	start := time.Now()
	for rep.Attempted == 0 || timeLeft(start, o.seconds, last) {
		t0 := time.Now()
		rep.Attempted++
		if o.traced {
			sp, err := fanOut(ctx, simCfg, units, charRuns, charWorkers)
			if err != nil {
				rep.Failed++
				rep.note("span fan-out failed: %v", err)
				last = time.Since(t0)
				continue
			}
			runMax = append(runMax, sp.maxMS)
			idle = append(idle, sp.idleFrac)
			fanRates = append(fanRates, sp.simSec/sp.wall.Seconds())
			l, err := startLedger()
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			c, sum, reportTime, err := pipeline(ctx, opts)
			wall := time.Since(t1)
			if serr := l.stop(&total); serr != nil {
				return nil, serr
			}
			last = time.Since(t0)
			if err != nil {
				rep.Failed++
				rep.note("traced pipeline failed: %v", err)
				continue
			}
			reportS = append(reportS, reportTime.Seconds())
			rates = append(rates, c.TotalRuntime()/wall.Seconds())
			check(c, sum)
			continue
		}
		c, sum, _, err := pipeline(ctx, opts)
		last = time.Since(t0)
		if err != nil {
			rep.Failed++
			ops.AddFailed()
			rep.note("pipeline failed: %v", err)
			continue
		}
		ops.Add(last)
		rates = append(rates, c.TotalRuntime()/last.Seconds())
		check(c, sum)
		live = math.Max(live, liveHeapMB())
		runtime.KeepAlive(c) // its memory is what liveHeapMB measures
	}
	window := time.Since(start).Seconds()
	rep.note("digest %s", firstDigest)

	if !o.traced {
		rep.setOps(&ops, window, charFailCapMS)
		rep.EndToEnd["mem_live_mb"] = live
		rep.noteQuantiles("pipeline", &ops)
		if len(rates) > 0 {
			rep.note("sim_rate %.4f s/s  (simulated seconds per host second, median of %d pipelines)", median(rates), len(rates))
		}
		return rep, nil
	}
	if len(rates) == 0 || len(fanRates) == 0 {
		rep.fail("no traced pipeline completed")
		return rep, nil
	}
	total.metrics(rep.Layer, float64(total.Windows))
	rep.Layer["sim.run_ms_max"] = median(runMax)
	rep.Layer["par.idle_frac"] = median(idle)
	rep.Layer["core.report_s"] = median(reportS)
	rep.Layer["trace.sim_rate"] = median(rates)
	rep.Layer["trace.sim_rate_delta"] = median(rates) - median(fanRates)
	rep.note("sim_rate %.4f s/s profiled, %.4f s/s for the same (unit, run) jobs unprofiled", median(rates), median(fanRates))
	total.check(rep)
	return rep, nil
}

// pipeline runs one characterization and its report. The report goes to
// a hash, the only sink that keeps its bytes checkable at io.Discard cost.
func pipeline(ctx context.Context, opts mobilebench.Options) (*mobilebench.Characterization, []byte, time.Duration, error) {
	c, err := mobilebench.CharacterizeContext(ctx, opts)
	if err != nil {
		return nil, nil, 0, err
	}
	h := sha256.New()
	t := time.Now()
	if err := c.WriteReport(h); err != nil {
		return nil, nil, 0, err
	}
	return c, h.Sum(nil), time.Since(t), nil
}

// digestOf hashes the report bytes and every unit's run-averaged
// aggregates: two characterizations share a digest only if both agree to
// the last bit.
func digestOf(c *mobilebench.Characterization, reportSum []byte) (string, error) {
	h := sha256.New()
	h.Write(reportSum)
	for _, name := range c.Names() {
		agg, err := c.Aggregates(name)
		if err != nil {
			return "", err
		}
		b, err := json.Marshal(agg)
		if err != nil {
			return "", err
		}
		h.Write([]byte(name))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ipcMAPE is the mean absolute percentage error of per-unit IPC against the
// calibration targets. The targets were used to calibrate, so this is a
// fit error, not a validation.
func ipcMAPE(c *mobilebench.Characterization) float64 {
	sum, n := 0.0, 0
	for _, tg := range workload.Targets {
		agg, err := c.Aggregates(tg.Name)
		if err != nil || tg.IPC == 0 {
			continue
		}
		sum += math.Abs(agg.IPC-tg.IPC) / tg.IPC
		n++
	}
	return 100 * sum / float64(n)
}

// spanStats summarizes one fan-out of the pipeline's (unit, run) jobs.
type spanStats struct {
	maxMS    float64       // slowest (unit, run) span
	idleFrac float64       // share of worker capacity left idle
	wall     time.Duration // fan-out wall time
	simSec   float64       // simulated seconds
}

// fanOut runs the pipeline's (unit, run) jobs through sim.Engine.RunContext
// on the same pool shape the collector uses (workers goroutines taking
// jobs in unit-major order) and times each job, which the collector itself
// does not expose.
func fanOut(ctx context.Context, cfg sim.Config, units []workload.Workload, runs, workers int) (spanStats, error) {
	eng, err := sim.New(cfg)
	if err != nil {
		return spanStats{}, err
	}
	var (
		next  atomic.Int64
		mu    sync.Mutex
		busy  time.Duration
		st    spanStats
		first error
		wg    sync.WaitGroup
	)
	n := len(units) * runs
	// Results are kept until the fan-out ends, as the collector keeps
	// them, so the heap the garbage collector paces against is the same.
	results := make([]*sim.Result, n)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= n {
					return
				}
				t := time.Now()
				res, err := eng.RunContext(ctx, units[j/runs], j%runs)
				d := time.Since(t)
				results[j] = res
				mu.Lock()
				busy += d
				st.maxMS = math.Max(st.maxMS, msOf(d))
				if err != nil && first == nil {
					first = err
				}
				if err == nil {
					st.simSec += res.Agg.RuntimeSec / float64(runs)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.wall = time.Since(start)
	st.idleFrac = 1 - busy.Seconds()/(float64(workers)*st.wall.Seconds())
	return st, first
}
