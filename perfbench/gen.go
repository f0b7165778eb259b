package main

// Seeded input generators. Every input a workload sends — simulation
// seeds, job specs, the finished-job history, stream records and the
// stream-log prefix — comes from here and from nothing but the --seed
// argument, so the same seed always produces byte-identical inputs.

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"mobilebench/internal/core"
	"mobilebench/internal/server"
)

// unitMean is one analysis unit's mean per-run runtime and raw feature
// vector (core.FeatureNames order), taken from a one-run exact
// characterization at the default simulation seed. Stream records are
// noise around these rows.
type unitMean struct {
	name       string
	runtimeSec float64
	features   []float64
}

var unitMeans = []unitMean{
	{"3DMark Slingshot", 178.7, []float64{0.6724, 37.11, 15.66, 0.3457, 0.6083, 0.5982, 0.1527, 0, 0.2533, 0}},
	{"3DMark Slingshot Extreme", 199.9, []float64{0.7148, 33.42, 14.64, 0.276, 0.6054, 0.6118, 0.1676, 0, 0.2838, 0}},
	{"3DMark Wild Life", 61.9, []float64{0.5102, 53.7, 22.72, 0.257, 0.6052, 0.6704, 0.1681, 0.06054, 0.24, 0}},
	{"3DMark Wild Life Extreme", 74.8, []float64{0.498, 54.82, 21.97, 0.2579, 0.7718, 0.7294, 0.2388, 0.06159, 0.3195, 0}},
	{"Antutu CPU", 150.8, []float64{1.053, 21.44, 9.136, 0.4761, 0, 0, 0, 0.08615, 0.1726, 0}},
	{"Antutu GPU", 229.7, []float64{0.5868, 46.28, 18.51, 0.3193, 0.6275, 0.7118, 0.2232, 0.007918, 0.318, 0}},
	{"Antutu Mem", 128.8, []float64{0.5141, 31.73, 14.83, 0.3508, 0, 0, 0, 0, 0.1677, 0.1653}},
	{"Antutu UX", 190.6, []float64{0.8948, 29.31, 11.29, 0.306, 0, 0, 0, 0.0751, 0.1894, 0}},
	{"Aitutu", 149.3, []float64{0.9755, 30.12, 4.662, 0.4096, 0, 0, 0, 0.1365, 0.1976, 0}},
	{"Geekbench 5 CPU", 120.7, []float64{1.25, 8.612, 7.865, 0.5016, 0, 0, 0, 0, 0.1718, 0}},
	{"Geekbench 5 Compute", 104.8, []float64{0.7437, 22.52, 21.96, 0.1513, 0.9522, 0.9237, 0.447, 0, 0.1741, 0}},
	{"Geekbench 6 CPU", 244.5, []float64{1.064, 15.02, 8.604, 0.5031, 0, 0, 0, 0, 0.1748, 0}},
	{"Geekbench 6 Compute", 179.9, []float64{0.7791, 21.95, 21.01, 0.1516, 0.9666, 0.9376, 0.3961, 0, 0.1957, 0}},
	{"GFXBench High", 1402.4, []float64{0.6138, 48.59, 20.07, 0.2762, 0.8568, 0.8092, 0.1918, 0, 0.2935, 0}},
	{"GFXBench Low", 605.5, []float64{0.595, 50.48, 20.26, 0.2464, 0.5725, 0.7232, 0.1383, 0, 0.2077, 0}},
	{"GFXBench Special", 45.1, []float64{0.6293, 37.16, 11.64, 0.1636, 0.4941, 0.4595, 0.1344, 0.3829, 0.2367, 0}},
	{"PCMark Storage", 70.1, []float64{1.234, 18.13, 1.605, 0.1057, 0, 0, 0, 0, 0.1431, 0.6723}},
	{"PCMark Work", 301.0, []float64{0.8603, 21.04, 17.91, 0.2812, 0.1659, 0.2084, 0.07948, 0.0484, 0.2006, 0.01004}},
}

// recordNoise is the relative standard deviation of a generated record
// around its unit's mean: about the run-to-run spread of one unit.
const recordNoise = 0.02

// Independent generator streams, so adding draws to one input kind never
// shifts another.
const (
	streamSimSeed = iota + 1
	streamJobs
	streamRecords
	streamPrefix
	streamHistory
)

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15*stream))
}

// simSeedFor maps the benchmark seed to the simulator seed. Seed 0 keeps
// the simulator's default (888), the seed whose result digest is pinned.
func simSeedFor(seed uint64) uint64 {
	if seed == 0 {
		return 0
	}
	for {
		if s := newRand(seed, streamSimSeed).Uint64(); s != 0 {
			return s
		}
		seed++
	}
}

// recordGen draws stream records: a uniformly chosen unit, its features and
// runtime scaled by independent Gaussian noise.
type recordGen struct{ r *rand.Rand }

func newRecordGen(seed, stream uint64) *recordGen { return &recordGen{newRand(seed, stream)} }

func (g *recordGen) next() core.StreamRecord {
	return g.noisy(unitMeans[g.r.IntN(len(unitMeans))])
}

func (g *recordGen) noisy(u unitMean) core.StreamRecord {
	f := make([]float64, len(u.features))
	for i, v := range u.features {
		f[i] = v * g.factor()
	}
	return core.StreamRecord{Unit: u.name, RuntimeSec: u.runtimeSec * g.factor(), Features: f}
}

func (g *recordGen) factor() float64 {
	f := 1 + recordNoise*g.r.NormFloat64()
	if f < 0 {
		return 0
	}
	return f
}

// prefixRecords is the stream log a stream-ingest server boots from: one
// record per unit in a seeded order, numbered from 1, so boot replays a
// complete 18-unit sweep.
func prefixRecords(seed uint64) []core.StreamRecord {
	g := newRecordGen(seed, streamPrefix)
	order := g.r.Perm(len(unitMeans))
	recs := make([]core.StreamRecord, len(order))
	for i, u := range order {
		recs[i] = g.noisy(unitMeans[u])
		recs[i].Seq = uint64(i + 1)
	}
	return recs
}

// Job round kinds of the serve-jobs mix.
const (
	roundCold     = "cold"     // two distinct fresh specs
	roundCached   = "cached"   // two repeats of completed specs
	roundCoalesce = "coalesce" // one fresh spec, submitted by both clients at once
)

// round is one closed-loop step of serve-jobs: both clients submit their
// spec together and wait for their job to finish before the next round.
type round struct {
	Kind  string         `json:"kind"`
	Specs [2]server.Spec `json:"specs"`
}

// Spec shapes of the fresh (cold) jobs.
const (
	coldUnit          = "GFXBench Special" // the shortest analysis unit
	coldReportRecords = 36                 // two records per unit on average
)

// jobGen draws the serve-jobs rounds. Each block of ten rounds holds four
// cold, two coalesce and four cached rounds, a cold round first, so the
// class mix is exact over every block: 40% of jobs are cache hits and the
// pooled median and p90 fall among executions, whose cost is CPU-bound.
// A cache hit's latency is mostly fsyncs, which drifted twofold within
// minutes on a shared 2-vCPU virtual machine; it is reported, not gated on.
// Fresh specs alternate between a one-unit characterize at a new seed and
// a streamreport over new records.
type jobGen struct {
	r     *rand.Rand
	recs  *recordGen
	fresh []server.Spec // every fresh spec so far; cached rounds repeat them
	block []string
}

func newJobGen(seed uint64) *jobGen {
	return &jobGen{r: newRand(seed, streamJobs), recs: newRecordGen(seed, streamRecords)}
}

func (g *jobGen) next() round {
	if len(g.block) == 0 {
		rest := []string{roundCold, roundCold, roundCold, roundCoalesce, roundCoalesce,
			roundCached, roundCached, roundCached, roundCached}
		g.r.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		g.block = append([]string{roundCold}, rest...)
	}
	kind := g.block[0]
	g.block = g.block[1:]
	rd := round{Kind: kind}
	switch kind {
	case roundCold:
		rd.Specs = [2]server.Spec{g.freshSpec(), g.freshSpec()}
	case roundCoalesce:
		sp := g.freshSpec()
		rd.Specs = [2]server.Spec{sp, sp}
	case roundCached:
		for i := range rd.Specs {
			rd.Specs[i] = g.fresh[g.r.IntN(len(g.fresh))]
		}
	}
	return rd
}

func (g *jobGen) freshSpec() server.Spec {
	var sp server.Spec
	if len(g.fresh)%2 == 0 {
		sp = server.Spec{Kind: "characterize", Units: []string{coldUnit}, Runs: 1, Workers: 2, Seed: g.r.Uint64() | 1}
	} else {
		recs := make([]core.StreamRecord, coldReportRecords)
		for i := range recs {
			recs[i] = g.recs.next()
		}
		sp = server.Spec{Kind: "streamreport", StreamRecords: recs, Workers: 2}
	}
	g.fresh = append(g.fresh, sp)
	return sp
}

// historyJobs are the finished job records a serve-jobs server boots from,
// as a server that has run for a while finds them in its state directory.
// Each is a one-unit characterize with a plausible result.
func historyJobs(seed uint64, n int) ([]server.Job, error) {
	r := newRand(seed, streamHistory)
	epoch := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	jobs := make([]server.Job, n)
	for i := range jobs {
		u := unitMeans[r.IntN(len(unitMeans))]
		res, err := json.Marshal(map[string]any{
			"units":             []map[string]any{{"name": u.name, "runtime_sec": u.runtimeSec, "ipc": u.features[0] * (1 + recordNoise*r.NormFloat64())}},
			"total_runtime_sec": u.runtimeSec,
			"degraded":          false,
		})
		if err != nil {
			return nil, err
		}
		jobs[i] = server.Job{
			ID:          fmt.Sprintf("job-%06d", i),
			Spec:        server.Spec{Kind: "characterize", Units: []string{u.name}, Runs: 1, Seed: r.Uint64() | 1},
			Status:      server.StatusDone,
			Seq:         i,
			SubmittedAt: epoch.Add(time.Duration(i) * time.Second),
			Result:      res,
		}
	}
	return jobs, nil
}
