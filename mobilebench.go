// Package mobilebench is a workload-characterization toolkit for commercial
// mobile benchmark suites, reproducing "Workload Characterization of
// Commercial Mobile Benchmark Suites" (Kariofillis & Enright Jerger,
// ISPASS 2024).
//
// The package bundles:
//
//   - a calibrated SoC simulator modelled on the paper's Snapdragon 888
//     Hardware Development Kit (tri-cluster CPU with EAS scheduling and
//     DVFS, sampled cache hierarchy and branch predictors, an Adreno-class
//     GPU, a Hexagon-class AI engine, LPDDR5 memory and UFS storage);
//   - phase-based models of the commercial suites the paper studies
//     (3DMark, Antutu, Aitutu, Geekbench 5/6, GFXBench, PCMark) — 41
//     individually executable sub-benchmarks forming 18 analysis units;
//   - the paper's analyses: aggregate metrics and their correlations,
//     temporal behaviour, CPU-heterogeneity load levels, clustering with
//     internal and stability validation, and benchmark subsetting with the
//     Yi et al. representativeness measure.
//
// Quick start:
//
//	c, err := mobilebench.Characterize(mobilebench.Options{})
//	if err != nil { ... }
//	rows, avg := c.Figure1()
//	subsets, _ := c.TableVI()
package mobilebench

import (
	"context"
	"io"
	"time"

	"mobilebench/internal/aie"
	"mobilebench/internal/branch"
	"mobilebench/internal/cache"
	"mobilebench/internal/cluster"
	"mobilebench/internal/core"
	"mobilebench/internal/cpu"
	"mobilebench/internal/fault"
	"mobilebench/internal/gpu"
	"mobilebench/internal/mem"
	"mobilebench/internal/profiler"
	"mobilebench/internal/report"
	"mobilebench/internal/roi"
	"mobilebench/internal/sim"
	"mobilebench/internal/soc"
	"mobilebench/internal/subset"
	"mobilebench/internal/workload"
)

// Re-exported model types, so custom workloads can be defined against the
// public API alone.
type (
	// Platform is a hardware description the simulator can execute on.
	Platform = soc.Platform
	// Workload is a runnable benchmark: a sequence of phases.
	Workload = workload.Workload
	// Phase is one behavioural interval of a benchmark.
	Phase = workload.Phase
	// CPUPhase is the CPU-side behaviour of a phase.
	CPUPhase = workload.CPUPhase
	// TaskSpec declares thread demands within a phase.
	TaskSpec = workload.TaskSpec
	// InstrMix is a phase's dynamic instruction mix.
	InstrMix = cpu.InstrMix
	// AccessPattern parameterizes a phase's synthetic memory stream.
	AccessPattern = cache.AccessPattern
	// BranchProfile parameterizes a phase's synthetic branch stream.
	BranchProfile = branch.Profile
	// Scene describes a phase's GPU rendering demand.
	Scene = gpu.Scene
	// GraphicsAPI selects a scene's graphics API.
	GraphicsAPI = gpu.API
	// AIEOp identifies an AI-engine operation class.
	AIEOp = aie.OpClass
	// AIEDemand is an AI-engine operation demand.
	AIEDemand = aie.Demand
	// IODemand is a storage demand.
	IODemand = mem.IODemand
	// Footprint is a phase's memory residency.
	Footprint = mem.Footprint
	// Aggregates are whole-run summary metrics.
	Aggregates = sim.Aggregates
	// Trace is the averaged counter time-series collection of a run.
	Trace = profiler.Trace
	// TraceMode is the type of the deprecated Options.TraceMode.
	//
	// Deprecated: ignored; every run keeps its full trace.
	TraceMode = sim.TraceMode
	// Clustering is one algorithm's benchmark grouping.
	Clustering = core.Clustering
	// Observation is one evaluated finding from the paper's Section V.
	Observation = core.Observation
	// SubsetSet is a named reduced benchmark set.
	SubsetSet = subset.Set
	// SubsetReduction is a subset's runtime-reduction record.
	SubsetReduction = subset.Reduction
	// CurvePoint is one step of a subset growth curve (Figure 7).
	CurvePoint = subset.CurvePoint
	// ValidationScores holds Dunn/Silhouette/APN/AD for one (algorithm, k).
	ValidationScores = cluster.Scores
	// Figure1Row is one benchmark's aggregate-metric entry.
	Figure1Row = core.Figure1Row
	// ROISelection is a set of representative regions of interest.
	ROISelection = roi.Selection
	// ROIInterval is one selected region of interest.
	ROIInterval = roi.Interval
	// FaultInjector deterministically injects failures into runs (chaos
	// testing); build one with ParseInjection or fault.New.
	FaultInjector = fault.Injector
	// RunError is one (benchmark, run) that failed permanently despite the
	// retry policy.
	RunError = core.RunError
	// CollectError aggregates every permanently failed run of a collection.
	CollectError = core.CollectError
	// OptionError reports one invalid option, named by field.
	OptionError = core.OptionError
	// UnitProvenance records how one benchmark's run set was collected:
	// attempts, retries, outlier re-runs, repairs and dropped runs.
	UnitProvenance = core.UnitProvenance
	// RunProvenance is one run's collection record within a UnitProvenance.
	RunProvenance = core.RunProvenance
)

// ParseInjection builds a fault injector from a comma-separated spec such as
// "crash=0.2,nan=0.1,seed=7" (the CLIs' -inject format). The empty spec
// returns a nil injector, which injects nothing.
func ParseInjection(spec string) (*FaultInjector, error) { return fault.Parse(spec) }

// Graphics APIs for Scene definitions.
const (
	APINone    = gpu.APINone
	APIOpenGL  = gpu.OpenGL
	APIVulkan  = gpu.Vulkan
	APICompute = gpu.Compute
)

const (
	// Deprecated: ignored; every run keeps its full trace.
	TraceFull = sim.TraceFull
	// Deprecated: ignored; every run keeps its full trace.
	TraceAuto = sim.TraceAuto
)

// AI-engine operation classes for AIEDemand definitions.
const (
	OpFFT         = aie.OpFFT
	OpGEMM        = aie.OpGEMM
	OpConv        = aie.OpConv
	OpSuperRes    = aie.OpSuperRes
	OpImageProc   = aie.OpImageProc
	OpPSNR        = aie.OpPSNR
	OpVideoDecode = aie.OpVideoDecode
	OpVideoEncode = aie.OpVideoEncode
	OpScroll      = aie.OpScroll
)

// Snapdragon888HDK returns the paper's experimental platform.
func Snapdragon888HDK() *Platform { return soc.Snapdragon888HDK() }

// AnalysisUnits returns the paper's 18 analysis units.
func AnalysisUnits() []Workload { return workload.AnalysisUnits() }

// Executables returns the 41 individually executable sub-benchmarks.
func Executables() []Workload { return workload.Executables() }

// BenchmarkByName returns a benchmark (analysis unit or executable).
func BenchmarkByName(name string) (Workload, error) { return workload.ByName(name) }

// Options configures Characterize. Every run keeps its full per-tick
// counter trace, so every table, figure and observation is available on
// the result.
type Options struct {
	// Platform overrides the simulated hardware (default: Snapdragon 888
	// HDK).
	Platform *Platform
	// Runs is the number of averaged runs per benchmark (default 3).
	Runs int
	// Seed overrides the simulation seed (default 888).
	Seed uint64
	// Units overrides the benchmark set (default: the 18 analysis units).
	Units []Workload
	// Workers bounds the parallelism of the simulation fan-out and the
	// figure sweeps: 0 selects one worker per CPU (the default), 1 forces
	// fully sequential execution (negative values are rejected). Every
	// (benchmark, run) pair derives an independent random stream, so the
	// result is bit-identical for any worker count.
	Workers int

	// MaxRetries is how many extra attempts each (benchmark, run) gets
	// after a failed first attempt (default 0: fail on the first error).
	MaxRetries int
	// RunTimeout bounds each attempt's wall-clock time; a hung run is
	// cancelled and retried (default 0: no timeout).
	RunTimeout time.Duration
	// FailFast aborts the whole characterization on the first permanently
	// failed run instead of finishing siblings and aggregating errors.
	FailFast bool
	// MinRuns accepts a benchmark once at least MinRuns of its Runs
	// produced valid results, recording the shortfall in the provenance
	// (default 0: every run is required).
	MinRuns int
	// Inject enables deterministic fault injection for chaos testing
	// (normally nil). Whenever every injected fault recovers through a
	// clean retry, the result is bit-identical to a fault-free run.
	Inject *FaultInjector

	// FastForward trades exactness for speed: steady phases are completed
	// analytically (2.6x faster per Wild Life run, 3.3x for a three-run
	// analysis, both on a 2-CPU host). Loads, power, energy and runtime
	// agree with the exact path, but the counter rates are biased: IPC
	// reads 4-11% low on every unit and cache MPKI up to 22% high. Off
	// (the default) keeps the exact, byte-identical path.
	FastForward bool
	// Deprecated: ignored; every run keeps its full trace.
	TraceMode TraceMode

	// Checkpoint, when non-empty, names a record log: every completed
	// (benchmark, run) is appended there durably, so a killed
	// characterization loses at most the pairs it was simulating.
	Checkpoint string
	// Resume restores completed (benchmark, run) pairs from the Checkpoint
	// log before collecting the remainder; the result is bit-identical to
	// an uninterrupted characterization. A missing log is a fresh start; a
	// corrupt, version-skewed or options-mismatched one fails with a typed
	// error from internal/checkpoint.
	Resume bool
}

// Characterization is the analysed dataset; all of the paper's tables,
// figures and observations are derived from it.
type Characterization struct {
	ds *core.Dataset
}

// Characterize runs the benchmarks on the simulated platform and returns
// the analysed dataset.
func Characterize(opts Options) (*Characterization, error) {
	return CharacterizeContext(context.Background(), opts)
}

// CharacterizeContext is Characterize with cancellation: cancelling the
// context aborts the in-flight simulations promptly instead of letting the
// remaining (benchmark, run) jobs complete.
func CharacterizeContext(ctx context.Context, opts Options) (*Characterization, error) {
	ds, err := core.CollectContext(ctx, core.Options{
		Sim: sim.Config{
			Platform:    opts.Platform,
			Seed:        opts.Seed,
			FastForward: opts.FastForward,
		},
		Runs:    opts.Runs,
		Units:   opts.Units,
		Workers: opts.Workers,
		Fault:   opts.Inject,
		Resilience: core.Resilience{
			MaxRetries: opts.MaxRetries,
			RunTimeout: opts.RunTimeout,
			FailFast:   opts.FailFast,
			MinRuns:    opts.MinRuns,
		},
		Checkpoint: opts.Checkpoint,
		Resume:     opts.Resume,
	})
	if err != nil {
		return nil, err
	}
	return &Characterization{ds: ds}, nil
}

// Dataset exposes the underlying dataset for advanced use within this
// module (internal packages).
func (c *Characterization) Dataset() *core.Dataset { return c.ds }

// Names returns the benchmark names in dataset order.
func (c *Characterization) Names() []string { return c.ds.Names() }

// Provenance returns the per-benchmark collection records (attempts,
// retries, outlier re-runs, repaired samples, dropped runs) in dataset
// order.
func (c *Characterization) Provenance() []UnitProvenance { return c.ds.Provenance }

// Degraded reports whether any benchmark's result fell short of a full set
// of clean runs (dropped runs or in-place trace repairs).
func (c *Characterization) Degraded() bool { return c.ds.Degraded() }

// Aggregates returns the named benchmark's run-averaged summary metrics.
func (c *Characterization) Aggregates(name string) (Aggregates, error) {
	u, err := c.ds.Unit(name)
	if err != nil {
		return Aggregates{}, err
	}
	return u.Agg, nil
}

// TraceOf returns the named benchmark's averaged counter trace.
func (c *Characterization) TraceOf(name string) (*Trace, error) {
	u, err := c.ds.Unit(name)
	if err != nil {
		return nil, err
	}
	return u.Trace, nil
}

// TotalRuntime returns the full benchmark set's runtime in seconds.
func (c *Characterization) TotalRuntime() float64 { return c.ds.TotalRuntimeSec() }

// Figure1 returns per-benchmark aggregate metrics and their averages.
func (c *Characterization) Figure1() ([]Figure1Row, Figure1Row) { return c.ds.Figure1() }

// MetricCorrelations returns the Table III Pearson matrix.
func (c *Characterization) MetricCorrelations() core.CorrelationTable { return c.ds.TableIII() }

// TemporalProfiles returns the Figure 2 normalized temporal profiles.
func (c *Characterization) TemporalProfiles(samples int) ([]core.TemporalProfile, error) {
	return c.ds.Figure2(samples)
}

// LoadLevels returns the Figure 3 per-cluster load-level occupancy.
func (c *Characterization) LoadLevels() ([]core.ClusterLoadProfile, error) { return c.ds.Figure3() }

// LoadLevelAverages returns Table V.
func (c *Characterization) LoadLevelAverages() ([soc.NumClusters][core.NumLoadLevels]float64, error) {
	return c.ds.TableV()
}

// ValidateClusterCounts sweeps k over the three algorithms (Figure 4).
func (c *Characterization) ValidateClusterCounts(kMin, kMax int) ([]ValidationScores, error) {
	return c.ds.Figure4(kMin, kMax)
}

// OptimalClusterCount aggregates a sweep into the winning k.
func (c *Characterization) OptimalClusterCount(kMin, kMax int) (int, error) {
	return c.ds.OptimalK(kMin, kMax)
}

// Cluster groups the benchmarks with the named algorithm ("kmeans", "pam"
// or "hierarchical") at k clusters.
func (c *Characterization) Cluster(algorithm string, k int) (Clustering, error) {
	alg, err := cluster.ByName(algorithm)
	if err != nil {
		return Clustering{}, err
	}
	return c.ds.ClusterWith(alg, k)
}

// ClusteringsAgree reports whether all three algorithms produce identical
// groupings at k, returning the groupings.
func (c *Characterization) ClusteringsAgree(k int) (bool, []Clustering, error) {
	return c.ds.AgreementAcrossAlgorithms(k)
}

// Subsets computes the paper's three reduced sets with runtimes and
// reductions (Table VI).
func (c *Characterization) Subsets() ([]SubsetReduction, error) { return c.ds.TableVI() }

// SubsetGrowthCurves computes Figure 7.
func (c *Characterization) SubsetGrowthCurves() (map[string][]CurvePoint, error) {
	return c.ds.Figure7()
}

// SubsetUnderBudget greedily selects the most representative subset that
// fits the runtime budget.
func (c *Characterization) SubsetUnderBudget(budgetSec float64) (SubsetSet, error) {
	return subset.UnderBudget(c.ds.SubsetBenchmarks(), budgetSec)
}

// SubsetRepresentativeness returns the total minimum Euclidean distance of
// the given members (smaller is more representative).
func (c *Characterization) SubsetRepresentativeness(members []string) (float64, error) {
	return subset.TotalMinDistance(c.ds.SubsetBenchmarks(), members)
}

// Observations evaluates the paper's Section V findings on the dataset.
func (c *Characterization) Observations() ([]Observation, error) { return c.ds.Observations() }

// RegionsOfInterest selects representative intervals from the named
// benchmark's trace (SimPoint-style): one interval per behaviour phase with
// a weight, so a simulator can replay a fraction of the benchmark and
// reconstruct its whole-run averages. windowSec <= 0 selects the default
// 5-second windows.
func (c *Characterization) RegionsOfInterest(name string, windowSec float64) (*ROISelection, error) {
	u, err := c.ds.Unit(name)
	if err != nil {
		return nil, err
	}
	return roi.Analyze(u.Trace, roi.Options{WindowSec: windowSec})
}

// WriteReport writes a full human-readable characterization report.
func (c *Characterization) WriteReport(w io.Writer) error { return report.WriteReport(w, c.ds) }
