// Command mbserved serves the characterization pipeline over HTTP:
// characterize/cluster/subset jobs run through a bounded queue with load
// shedding (429 + adaptive Retry-After), per-job deadlines and crash-safe
// state. Collections checkpoint every completed (benchmark, run), so a
// drained or killed server resumes its unfinished jobs on the next start
// instead of redoing them.
//
// Single process:
//
//	mbserved -state DIR [-addr :8089] [-queue N] [-concurrent N]
//	         [-cache-dir DIR] [-job-timeout D] [-drain-grace D] [-pprof ADDR]
//
// Fleet: one coordinator shards jobs across N worker processes over a
// versioned JSON-lines protocol. Workers heartbeat their leases; a worker
// that dies (kill -9 included) loses its lease and the job is
// re-dispatched, resuming bit-identically from its checkpoint. The fleet
// shares one filesystem for -state (and -cache-dir): one box, or a shared
// volume.
//
//	mbserved -coordinator :9090 -state DIR -cache-dir DIR -concurrent 4
//	mbserved -worker HOST:9090 [-worker-id ID] [-capacity N] [-heartbeat D]
//
// Submit and inspect jobs:
//
//	curl -d '{"kind":"characterize","runs":1}' localhost:8089/jobs
//	curl localhost:8089/jobs/job-000000
//
// Streaming ingest (-stream): measurement records fold one at a time into
// a continuously re-clustered analysis — a record that leaves the
// normalized features unchanged skips the sweep, any other re-runs it —
// whose published state is byte-identical to a batch analysis of the same
// records. Every record is
// fsynced to an append-only log before it is acked, and a restart replays
// the log bit-identically.
//
//	mbserved -state DIR -stream [-stream-kmin 2] [-stream-kmax 9]
//	curl -d '{"unit":"x","runtime_sec":9,"features":[...]}' localhost:8089/v1/stream
//	curl localhost:8089/v1/stream/state
//	curl 'localhost:8089/v1/stream/changes?since=0'
//	curl -XPOST localhost:8089/v1/stream/report   # batch re-analysis as a job
//
// On SIGTERM or SIGINT the server drains: admission stops (503), queued
// jobs stay persisted for the next start, and in-flight jobs get the grace
// period to finish before being interrupted at a checkpointed boundary.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"mobilebench/internal/cliflag"
	"mobilebench/internal/cosim"
	"mobilebench/internal/dist"
	"mobilebench/internal/server"
)

func main() {
	addr := flag.String("addr", ":8089", "listen address")
	state := flag.String("state", "mbserved-state", "directory for job records and collection checkpoints")
	queue := flag.Int("queue", 8, "queued-job bound; submissions beyond it are shed with 429")
	concurrent := flag.Int("concurrent", 1, "jobs running at once")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job deadline unless the job sets its own (0 = none)")
	drainGrace := flag.Duration("drain-grace", 2*time.Second, "how long a drain lets in-flight jobs finish before interrupting them")
	cacheDir := flag.String("cache-dir", "", "content-addressed result cache directory; repeat submissions answer from it without executing (off when empty)")
	coordinator := flag.String("coordinator", "", "run as fleet coordinator: listen for workers on this address and dispatch jobs to them")
	workerAddr := flag.String("worker", "", "run as fleet worker: connect to the coordinator at this address (no HTTP API)")
	workerID := flag.String("worker-id", "", "worker identity, unique per fleet (default worker-<pid>)")
	capacity := flag.Int("capacity", 1, "jobs this worker runs concurrently (worker mode)")
	heartbeat := flag.Duration("heartbeat", time.Second, "per-lease heartbeat period (worker mode)")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "heartbeat silence after which a lease is revoked and its job re-dispatched (coordinator mode)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address, e.g. localhost:6060 (off when empty)")
	tf := cliflag.RegisterTiming(flag.CommandLine)
	sf := cliflag.RegisterStream(flag.CommandLine)
	flag.Parse()

	if *coordinator != "" && *workerAddr != "" {
		fatal(errors.New("-coordinator and -worker are mutually exclusive"))
	}
	if err := tf.Validate(); err != nil {
		fatal(err)
	}
	if err := sf.Validate(); err != nil {
		fatal(err)
	}
	if *workerAddr != "" && sf.Enable {
		fatal(errors.New("-stream is server configuration; a worker serves no HTTP API"))
	}
	if *coordinator != "" && tf.ReplayDir != "" {
		fatal(errors.New("-timing-replay is worker configuration; a coordinator never executes jobs"))
	}

	if *pprofAddr != "" {
		// A separate listener keeps the debug surface off the job API's
		// address; DefaultServeMux carries the net/http/pprof handlers.
		go func() {
			fmt.Fprintf(os.Stderr, "mbserved: pprof on http://%s/debug/pprof/\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "mbserved: pprof listener:", err)
			}
		}()
	}

	if *workerAddr != "" {
		timing, err := tf.Provider(nil)
		if err != nil {
			fatal(err)
		}
		if timing != nil {
			defer timing.Close()
		}
		runWorker(*workerAddr, *workerID, *capacity, *heartbeat, timing)
		return
	}

	cfg := server.Config{
		StateDir:      *state,
		QueueDepth:    *queue,
		MaxConcurrent: *concurrent,
		JobTimeout:    *jobTimeout,
		DrainGrace:    *drainGrace,
		CacheDir:      *cacheDir,
		Stream: server.StreamConfig{
			Enabled: sf.Enable,
			KMin:    sf.KMin,
			KMax:    sf.KMax,
		},
	}
	if *coordinator == "" {
		// Single-process mode executes jobs in this process, so the
		// external model plugs in through the Execute hook and its identity
		// into the cache keys.
		timing, err := tf.Provider(nil)
		if err != nil {
			fatal(err)
		}
		if timing != nil {
			defer timing.Close()
			cfg.TimingFingerprint = timing.Fingerprint()
			cfg.Execute = func(ctx context.Context, id string, spec server.Spec, checkpointPath string) (json.RawMessage, error) {
				return server.ExecuteSpecWith(ctx, spec, checkpointPath, server.ExecOptions{Timing: timing})
			}
		}
	} else {
		// A coordinator dispatches specs to workers and never executes one
		// itself, so it keeps no timing child of its own. It still probes
		// -timing-model once (spawn, handshake, close) for the fleet's
		// timing identity: the cache and coalescing keys must carry the
		// same fingerprint the workers' collections do, or a persistent
		// -cache-dir would serve one timing configuration's bytes under
		// another. Workers must be started with the same -timing-model.
		fp, err := tf.Fingerprint(nil)
		if err != nil {
			fatal(err)
		}
		cfg.TimingFingerprint = fp
	}

	var coord *dist.Coordinator
	if *coordinator != "" {
		coord = dist.NewCoordinator(dist.CoordinatorConfig{LeaseTTL: *leaseTTL})
		ln, err := net.Listen("tcp", *coordinator)
		if err != nil {
			fatal(err)
		}
		go coord.Serve(ln)
		fmt.Fprintf(os.Stderr, "mbserved: coordinating workers on %s\n", ln.Addr())
		cfg.Execute = func(ctx context.Context, id string, spec server.Spec, checkpointPath string) (json.RawMessage, error) {
			raw, err := json.Marshal(spec)
			if err != nil {
				return nil, err
			}
			return coord.Execute(ctx, id, raw, checkpointPath)
		}
		cfg.Ready = func() bool {
			workers, _, _ := coord.Stats()
			return workers > 0
		}
	}

	srv, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "mbserved: listening on %s, state in %s\n", *addr, *state)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-errCh:
		fatal(err)
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "mbserved: %v: draining (in-flight jobs get %s)\n", sig, *drainGrace)
	}

	// Drain jobs first — /healthz and job reads keep answering meanwhile —
	// then close the listener and the fleet.
	ctx, cancel := context.WithTimeout(context.Background(), *drainGrace+30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fatal(err)
	}
	if coord != nil {
		coord.Close()
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "mbserved: drained cleanly")
}

// runWorker is the worker-mode main loop: execute dispatched specs
// through the same checkpointed path the single-process server uses,
// until the coordinator rejects us or a signal lands. All workers of a
// fleet must share one -timing-model configuration: a non-exact model
// changes checkpoint fingerprints, and a job re-dispatched to a
// differently-configured worker would refuse the first worker's snapshot.
func runWorker(addr, id string, capacity int, heartbeat time.Duration, timing *cosim.Provider) {
	if id == "" {
		id = fmt.Sprintf("worker-%d", os.Getpid())
	}
	eo := server.ExecOptions{}
	if timing != nil {
		eo.Timing = timing
	}
	w, err := dist.NewWorker(dist.WorkerConfig{ID: id, Capacity: capacity, Heartbeat: heartbeat},
		func(ctx context.Context, jobID string, raw json.RawMessage, checkpointPath string) (json.RawMessage, error) {
			var sp server.Spec
			if err := json.Unmarshal(raw, &sp); err != nil {
				return nil, fmt.Errorf("mbserved: undecodable spec for %s: %w", jobID, err)
			}
			if err := sp.Validate(); err != nil {
				return nil, err
			}
			return server.ExecuteSpecWith(ctx, sp, checkpointPath, eo)
		})
	if err != nil {
		fatal(err)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer cancel()
	fmt.Fprintf(os.Stderr, "mbserved: worker %s serving coordinator %s\n", id, addr)
	if err := w.Run(ctx, addr); err != nil && !errors.Is(err, context.Canceled) {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "mbserved: worker %s stopped\n", id)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mbserved:", err)
	os.Exit(1)
}
