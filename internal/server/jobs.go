// Job specs and their execution: each kind maps onto one of the pipeline's
// analyses, collected through the crash-safe checkpointed path so an
// interrupted job resumes instead of restarting.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"mobilebench/internal/cluster"
	"mobilebench/internal/core"
	"mobilebench/internal/fault"
	"mobilebench/internal/sim"
	"mobilebench/internal/workload"
)

// Spec is a submitted job description (the POST /jobs body).
type Spec struct {
	// Kind selects the analysis: "characterize", "cluster", "subset" or
	// "streamreport".
	Kind string `json:"kind"`
	// Units names the benchmarks to collect (default: all 18 analysis
	// units).
	Units []string `json:"units,omitempty"`
	// Runs is the runs averaged per benchmark (default 3).
	Runs int `json:"runs,omitempty"`
	// Seed overrides the simulation seed (default 888).
	Seed uint64 `json:"seed,omitempty"`
	// Workers bounds the collection's parallelism (0 = all cores).
	Workers int `json:"workers,omitempty"`
	// MaxRetries / MinRuns configure the self-healing policy.
	MaxRetries int `json:"max_retries,omitempty"`
	MinRuns    int `json:"min_runs,omitempty"`
	// Inject is a fault-injection spec ("crash=0.2,seed=7"), normally "".
	Inject string `json:"inject,omitempty"`
	// TimeoutSec overrides the server's per-job deadline (0 = server
	// default).
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// K and Algorithm configure the "cluster" kind (defaults 5, "kmeans").
	K         int    `json:"k,omitempty"`
	Algorithm string `json:"algorithm,omitempty"`
	// StreamRecords, StreamKMin and StreamKMax configure the
	// "streamreport" kind: a cold batch re-analysis of an ingested record
	// stream (core.StreamBatch), the comparator the live stream state is
	// held byte-identical to. The records ARE the dataset — no collection
	// runs — so they are hashed into the cache key as the dataset
	// generation.
	StreamRecords []core.StreamRecord `json:"stream_records,omitempty"`
	StreamKMin    int                 `json:"stream_kmin,omitempty"`
	StreamKMax    int                 `json:"stream_kmax,omitempty"`
}

// Validate rejects a malformed spec at admission, before it costs a queue
// slot.
func (sp Spec) Validate() error {
	switch sp.Kind {
	case "characterize", "subset":
	case "cluster":
		if sp.K < 0 {
			return fmt.Errorf("server: k must be >= 0")
		}
		if _, err := cluster.ByName(sp.clusterAlg()); err != nil {
			return fmt.Errorf("server: %w", err)
		}
	case "streamreport":
		if len(sp.StreamRecords) == 0 {
			return fmt.Errorf("server: streamreport needs at least one record")
		}
		for i, rec := range sp.StreamRecords {
			if err := rec.Validate(); err != nil {
				return fmt.Errorf("server: stream record %d: %w", i, err)
			}
		}
		if err := sp.streamOptions().Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("server: unknown job kind %q (want characterize, cluster, subset or streamreport)", sp.Kind)
	}
	// A deadline of 2^63 ns or more overflows time.Duration into one
	// already past.
	if sp.TimeoutSec < 0 || sp.TimeoutSec*float64(time.Second) >= 1<<63 {
		return fmt.Errorf("server: timeout_sec must be >= 0 and below 2^63 ns (about 292 years)")
	}
	// CacheKey and the collection apply the same checks later: failing
	// here makes a 400 of a job that could only fail in the queue.
	opts, err := specOptions(sp, "")
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if err := opts.Validate(); err != nil {
		return err
	}
	if sp.Kind == "cluster" {
		if k, units := sp.clusterK(), len(opts.CollectUnits()); k > units {
			return fmt.Errorf("server: k=%d exceeds the %d units to cluster", k, units)
		}
	}
	return nil
}

// clusterK is the "cluster" kind's cluster count: K, or 5 when unset.
func (sp Spec) clusterK() int {
	if sp.K == 0 {
		return 5
	}
	return sp.K
}

// clusterAlg is the "cluster" kind's algorithm: Algorithm, or "kmeans"
// when unset.
func (sp Spec) clusterAlg() string {
	if sp.Algorithm == "" {
		return "kmeans"
	}
	return sp.Algorithm
}

// characterizeResult is the "characterize" kind's output.
type characterizeResult struct {
	Units           []unitResult `json:"units"`
	TotalRuntimeSec float64      `json:"total_runtime_sec"`
	Degraded        bool         `json:"degraded"`
}

type unitResult struct {
	Name       string  `json:"name"`
	RuntimeSec float64 `json:"runtime_sec"`
	IPC        float64 `json:"ipc"`
	CacheMPKI  float64 `json:"cache_mpki"`
	BranchMPKI float64 `json:"branch_mpki"`
	CPULoad    float64 `json:"cpu_load"`
	GPULoad    float64 `json:"gpu_load"`
	AIELoad    float64 `json:"aie_load"`
	AvgPowerW  float64 `json:"avg_power_w"`
}

// specOptions builds the collection options a spec describes.
// checkpointPath may be empty (fingerprinting does not need one).
func specOptions(sp Spec, checkpointPath string) (core.Options, error) {
	var units []workload.Workload
	for _, name := range sp.Units {
		w, err := workload.ByName(name)
		if err != nil {
			return core.Options{}, err
		}
		units = append(units, w)
	}
	inj, err := fault.Parse(sp.Inject)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Sim:     sim.Config{Seed: sp.Seed},
		Fault:   inj,
		Runs:    sp.Runs,
		Units:   units,
		Workers: sp.Workers,
		Resilience: core.Resilience{
			MaxRetries: sp.MaxRetries,
			MinRuns:    sp.MinRuns,
		},
		// Resume unconditionally: a fresh job finds no checkpoint (fresh
		// start), an interrupted one — including one re-dispatched after
		// a worker death — finds its completed pairs.
		Checkpoint: checkpointPath,
		Resume:     checkpointPath != "",
	}, nil
}

// CacheKey returns the spec's content address: a hex key binding the
// collection's canonical option string (seed, units, runs, simulator
// configuration, fault plan, result-affecting retry knobs) to the
// analysis kind, its normalized parameters, and the executing process's
// timing-backend identity. Two specs with equal keys produce
// byte-identical results, so the key is safe to answer from the cache or
// to coalesce on. Execution-only knobs (Workers, TimeoutSec) are
// deliberately excluded: they never change the bytes. The key is a
// sha256 of the full canonical string — not a fold of the 64-bit
// snapshot fingerprint — so distinct specs colliding into one cache
// entry (and silently serving each other's bytes) is not a birthday
// bound but a cryptographic one.
//
// timingFingerprint is the serving process's sim.TimingProvider
// fingerprint ("" for the in-process models or an exact external one).
// The timing backend is process configuration, not part of the spec —
// specOptions leaves Sim.Timing nil, so the canonical string alone never
// carries it — yet a non-exact model changes every collected byte. It is
// therefore appended here exactly as sim.Config.WriteCanonical renders
// it on the executing side, so a persistent cache directory shared across
// servers with different -timing-model configurations can never serve
// one configuration's bytes under another. An empty fingerprint appends
// nothing, keeping keys (and existing caches) identical to the
// pre-timing format.
func (sp Spec) CacheKey(timingFingerprint string) (string, error) {
	opts, err := specOptions(sp, "")
	if err != nil {
		return "", err
	}
	canon, err := opts.CheckpointCanonical()
	if err != nil {
		return "", err
	}
	// Normalize the kind parameters so spec defaults and their explicit
	// spellings address the same entry.
	k, alg := 0, ""
	if sp.Kind == "cluster" {
		k, alg = sp.clusterK(), sp.clusterAlg()
	}
	timing := ""
	if timingFingerprint != "" {
		timing = fmt.Sprintf("|timing=%q", timingFingerprint)
	}
	// The streamreport kind's dataset is its records, not a collection:
	// their canonical JSON (seq, unit, runtime, features — every byte that
	// reaches the fold) is hashed in as the dataset generation, together
	// with the normalized sweep range. Any accepted record therefore moves
	// the key: a stream at generation N and the same stream at N+1 can
	// never serve each other's bytes.
	stream := ""
	if sp.Kind == "streamreport" {
		recs, err := json.Marshal(sp.StreamRecords)
		if err != nil {
			return "", err
		}
		sum := sha256.Sum256(recs)
		so := sp.streamOptions().WithDefaults()
		stream = fmt.Sprintf("|stream=%s|skmin=%d|skmax=%d", hex.EncodeToString(sum[:]), so.KMin, so.KMax)
	}
	h := sha256.Sum256(fmt.Appendf(nil, "mbcache-v2|%s|kind=%s|k=%d|alg=%s|minruns=%d%s%s", canon, sp.Kind, k, alg, sp.MinRuns, stream, timing))
	return hex.EncodeToString(h[:]), nil
}

// streamOptions builds the streamreport sweep options a spec describes.
// The report is the batch comparator, core.StreamBatch, which the live
// stream state equals byte for byte.
func (sp Spec) streamOptions() core.StreamOptions {
	return core.StreamOptions{KMin: sp.StreamKMin, KMax: sp.StreamKMax, Workers: sp.Workers}
}

// ExecuteSpec runs one spec's collection and analysis outside any Server:
// the fleet worker's entry point. Collection state checkpoints at
// checkpointPath after every completed (unit, run), so whichever process
// executes the spec next — after a drain, a crash or a kill -9 — resumes
// from everything previously persisted and produces the same bytes an
// undisturbed execution would.
func ExecuteSpec(ctx context.Context, sp Spec, checkpointPath string) (json.RawMessage, error) {
	return ExecuteSpecWith(ctx, sp, checkpointPath, ExecOptions{})
}

// ExecOptions carries process-level execution dependencies a spec cannot
// name: configuration of the process running the job, not of the job.
type ExecOptions struct {
	// Timing routes the collection's memory/storage timing through an
	// external co-simulated model (nil = in-process). A non-exact model
	// changes the checkpoint fingerprint, so a fleet must run every worker
	// with the same timing configuration, or jobs re-dispatched across
	// differently-configured workers would refuse each other's snapshots.
	// It does not reach CacheKey by itself: the serving process must carry
	// the same identity into its cache/coalescing keys through
	// Config.TimingFingerprint.
	Timing sim.TimingProvider
}

// ExecuteSpecWith is ExecuteSpec with process-level execution options.
func ExecuteSpecWith(ctx context.Context, sp Spec, checkpointPath string, eo ExecOptions) (json.RawMessage, error) {
	// A streamreport carries its dataset in the spec: no collection, no
	// checkpoint, no timing backend — just the deterministic batch
	// re-analysis of the records.
	if sp.Kind == "streamreport" {
		sum, err := core.StreamBatch(ctx, sp.StreamRecords, sp.streamOptions())
		if err != nil {
			return nil, err
		}
		return json.Marshal(sum)
	}
	opts, err := specOptions(sp, checkpointPath)
	if err != nil {
		return nil, err
	}
	if eo.Timing != nil {
		opts.Sim.Timing = eo.Timing
	}
	ds, err := core.CollectContext(ctx, opts)
	if err != nil {
		return nil, err
	}
	var result any
	switch sp.Kind {
	case "characterize":
		res := characterizeResult{TotalRuntimeSec: ds.TotalRuntimeSec(), Degraded: ds.Degraded()}
		for _, u := range ds.Units {
			res.Units = append(res.Units, unitResult{
				Name:       u.Workload.Name,
				RuntimeSec: u.Agg.RuntimeSec,
				IPC:        u.Agg.IPC,
				CacheMPKI:  u.Agg.CacheMPKI,
				BranchMPKI: u.Agg.BranchMPKI,
				CPULoad:    u.Agg.AvgCPULoad,
				GPULoad:    u.Agg.AvgGPULoad,
				AIELoad:    u.Agg.AvgAIELoad,
				AvgPowerW:  u.Agg.AvgPowerW,
			})
		}
		result = res
	case "cluster":
		alg, err := cluster.ByName(sp.clusterAlg())
		if err != nil {
			return nil, err
		}
		c, err := ds.ClusterWith(alg, sp.clusterK())
		if err != nil {
			return nil, err
		}
		result = c
	case "subset":
		reds, err := ds.TableVI()
		if err != nil {
			return nil, err
		}
		result = reds
	default:
		return nil, fmt.Errorf("server: unknown job kind %q", sp.Kind)
	}
	return json.Marshal(result)
}
