// Package server is the resilient characterization service behind
// cmd/mbserved: characterize/cluster/subset jobs run through a bounded
// queue with load shedding, per-job deadlines, per-job panic isolation and
// crash-safe state. Every accepted job is persisted before its 202 leaves
// the handler, every collection checkpoints through internal/checkpoint,
// and a drained or killed server resumes its unfinished jobs on restart —
// zero accepted jobs are ever lost.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mobilebench/internal/checkpoint"
	"mobilebench/internal/dist"
	"mobilebench/internal/par"
)

// Job states. A job is accepted as StatusQueued, picked up as
// StatusRunning, and ends as StatusDone, StatusFailed or — when the server
// drains mid-run — StatusInterrupted, from which a restarted server
// resumes it. StatusRunning lives in memory only: the job's record stays
// queued on disk until its terminal state is written, so a server that
// dies mid-run leaves a queued record, which a restart re-enqueues.
const (
	StatusQueued      = "queued"
	StatusRunning     = "running"
	StatusDone        = "done"
	StatusFailed      = "failed"
	StatusInterrupted = "interrupted"
)

// Config configures a Server.
type Config struct {
	// StateDir holds the per-job records (<id>.json) and collection
	// checkpoints (<id>.ckpt). Required.
	StateDir string
	// QueueDepth bounds the jobs waiting to run; submissions beyond it are
	// shed with 429 + Retry-After (default 8).
	QueueDepth int
	// MaxConcurrent bounds the jobs running at once (default 1: the
	// collections themselves already parallelize).
	MaxConcurrent int
	// JobTimeout is the per-job deadline when the job's spec does not set
	// one (0 = no deadline).
	JobTimeout time.Duration
	// DrainGrace is how long Shutdown lets in-flight jobs keep running
	// before cancelling them; cancelled jobs resume from their checkpoint
	// on restart (default 2s).
	DrainGrace time.Duration
	// CacheDir, when non-empty, enables the content-addressed result
	// cache: successful results are stored under their spec's fingerprint
	// key, and a later identical submission is answered from the cache in
	// microseconds instead of re-executed.
	CacheDir string
	// Execute, when non-nil, replaces local in-process execution — the
	// coordinator mode wires the fleet dispatcher here. The function
	// receives the job's spec and the checkpoint path any (re-)execution
	// must resume from.
	Execute func(ctx context.Context, id string, spec Spec, checkpointPath string) (json.RawMessage, error)
	// Ready, when non-nil, gates /readyz beyond the drain state — the
	// coordinator mode reports false until at least one worker is
	// connected.
	Ready func() bool
	// Stream configures the streaming ingest path (POST /v1/stream and
	// friends); the zero value leaves it off.
	Stream StreamConfig
	// TimingFingerprint is the executing timing backend's identity
	// (sim.TimingProvider.Fingerprint(); "" = the in-process models or an
	// exact external one), folded into every cache and coalescing key. A
	// non-exact external model changes every collected byte without
	// appearing anywhere in the Spec, so a persistent CacheDir reused
	// across processes with different -timing-model configurations would
	// otherwise silently serve one configuration's bytes under another.
	// Single-process mode sets it from its own provider; a coordinator
	// sets it to its fleet's (every worker must share one timing
	// configuration — see ExecOptions.Timing).
	TimingFingerprint string
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 1
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 2 * time.Second
	}
	return c
}

// Job is the persisted record of one submitted job.
type Job struct {
	ID     string `json:"id"`
	Spec   Spec   `json:"spec"`
	Status string `json:"status"`
	// Seq is the admission sequence number (panic reports reference it).
	Seq int `json:"seq"`
	// SubmittedAt is the admission time; startup recovery replays
	// unfinished jobs in this order (Seq breaking ties), so replayed work
	// preserves the original admission order whatever order the state
	// directory lists records in.
	SubmittedAt time.Time `json:"submitted_at,omitzero"`
	// Error holds the failure cause for StatusFailed.
	Error string `json:"error,omitempty"`
	// Result holds the job's output for StatusDone.
	Result json.RawMessage `json:"result,omitempty"`
	// Cached marks a result answered from the content-addressed cache
	// without executing.
	Cached bool `json:"cached,omitempty"`
	// Coalesced marks a result adopted from a concurrent identical
	// execution (the observers share one run and one set of bytes).
	Coalesced bool `json:"coalesced,omitempty"`
}

// Server runs jobs from a bounded queue over a fixed worker pool.
type Server struct {
	cfg Config

	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // job IDs in admission order
	seq      int
	draining bool
	running  int // jobs currently executing (feeds the Retry-After estimate)

	// durs is a ring of recent terminal job durations in seconds; the
	// adaptive Retry-After hint derives from their mean and the backlog.
	durs    [durRingSize]float64
	durN    int // samples recorded (saturates at durRingSize)
	durNext int // next ring slot

	queue chan *Job
	wg    sync.WaitGroup

	cache  *dist.Cache // nil when Config.CacheDir is empty
	flight *dist.Coalescer
	stream *streamEngine // nil when Config.Stream.Enabled is false
}

// New builds a server, recovering any unfinished jobs found in
// cfg.StateDir: queued, running and interrupted records are re-enqueued
// (their collections resume from the <id>.ckpt checkpoint log), finished
// ones are served read-only.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("server: Config.StateDir is required")
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, jobs: make(map[string]*Job), flight: dist.NewCoalescer()}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	if cfg.CacheDir != "" {
		cache, err := dist.OpenCache(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		s.cache = cache
	}

	if cfg.Stream.Enabled {
		stream, err := newStreamEngine(cfg.StateDir, cfg.Stream)
		if err != nil {
			return nil, err
		}
		s.stream = stream
	}

	recovered, err := s.loadState()
	if err != nil {
		return nil, err
	}
	// The queue must hold every recovered job plus a full round of new
	// admissions, so startup recovery can never deadlock on its own queue.
	s.queue = make(chan *Job, cfg.QueueDepth+len(recovered))
	for _, job := range recovered {
		job.Status = StatusQueued
		job.Error = ""
		if err := s.persist(job); err != nil {
			return nil, err
		}
		s.queue <- job
	}
	for i := 0; i < cfg.MaxConcurrent; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// loadState reads every persisted job record, returning the unfinished
// ones in original admission order: submission time first (directory
// listing order carries no meaning, and sequence numbers restart per
// process life), sequence number breaking ties so replay stays
// deterministic even for records admitted within one clock tick. Records
// from before SubmittedAt existed carry the zero time and sort first, by
// sequence — exactly the old behaviour.
func (s *Server) loadState() ([]*Job, error) {
	ents, err := os.ReadDir(s.cfg.StateDir)
	if err != nil {
		return nil, err
	}
	var unfinished []*Job
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.cfg.StateDir, e.Name()))
		if err != nil {
			return nil, err
		}
		var job Job
		if err := json.Unmarshal(data, &job); err != nil {
			return nil, fmt.Errorf("server: corrupt job record %s: %w", e.Name(), err)
		}
		s.jobs[job.ID] = &job
		s.order = append(s.order, job.ID)
		if job.Seq >= s.seq {
			s.seq = job.Seq + 1
		}
		switch job.Status {
		case StatusDone, StatusFailed:
		default:
			unfinished = append(unfinished, &job)
		}
	}
	admittedBefore := func(a, b *Job) bool {
		if !a.SubmittedAt.Equal(b.SubmittedAt) {
			return a.SubmittedAt.Before(b.SubmittedAt)
		}
		return a.Seq < b.Seq
	}
	sort.Slice(s.order, func(i, j int) bool { return admittedBefore(s.jobs[s.order[i]], s.jobs[s.order[j]]) })
	sort.Slice(unfinished, func(i, j int) bool { return admittedBefore(unfinished[i], unfinished[j]) })
	return unfinished, nil
}

// persist writes the job record atomically; after it returns the job
// survives a process kill.
func (s *Server) persist(job *Job) error {
	data, err := json.MarshalIndent(job, "", "  ")
	if err != nil {
		return err
	}
	return checkpoint.WriteFile(filepath.Join(s.cfg.StateDir, job.ID+".json"), data, 0o644)
}

func (s *Server) checkpointPath(job *Job) string {
	return filepath.Join(s.cfg.StateDir, job.ID+".ckpt")
}

// Submit admits a job, persists it and queues it. It returns a copy of
// the admitted record (the worker mutates the live one), or an error
// satisfying Overloaded() / Draining() when shedding.
func (s *Server) Submit(spec Spec) (Job, error) {
	if err := spec.Validate(); err != nil {
		return Job{}, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return Job{}, errDraining
	}
	seq := s.seq
	s.seq++
	job := &Job{ID: fmt.Sprintf("job-%06d", seq), Spec: spec, Status: StatusQueued, Seq: seq, SubmittedAt: time.Now().UTC()}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.mu.Unlock()

	// Persist before queueing: once the client hears "accepted", not even
	// kill -9 loses the job.
	if err := s.persist(job); err != nil {
		s.forget(job.ID)
		return Job{}, err
	}
	// The send happens under the lock Shutdown closes the queue under, so
	// a drain racing a submission can never send on a closed channel.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.discard(job.ID)
		return Job{}, errDraining
	}
	select {
	case s.queue <- job:
		admitted := *job
		s.mu.Unlock()
		return admitted, nil
	default:
		s.mu.Unlock()
		// Shed load instead of queueing unboundedly; drop the record so a
		// restart does not resurrect a job the client was told to retry.
		s.discard(job.ID)
		return Job{}, errOverloaded
	}
}

// discard forgets a job that was persisted but never queued.
func (s *Server) discard(id string) {
	s.forget(id)
	_ = os.Remove(filepath.Join(s.cfg.StateDir, id+".json"))
}

func (s *Server) forget(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// Get returns a copy of the job record.
func (s *Server) Get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *job, true
}

// Jobs returns copies of every job record in admission order.
func (s *Server) Jobs() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.jobs[id])
	}
	return out
}

func (s *Server) setStatus(job *Job, status, errMsg string, result json.RawMessage) error {
	s.mu.Lock()
	job.Status = status
	job.Error = errMsg
	job.Result = result
	s.mu.Unlock()
	return s.persist(job)
}

// worker consumes the queue until Shutdown closes it. Once draining, the
// remaining queued jobs are left persisted as queued for the next process
// instead of being started.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			continue // stays persisted as queued; the restart re-enqueues it
		}
		s.runJob(job)
	}
}

// runJob executes one job with its deadline and panic isolation, and
// persists the terminal state. Identical submissions are deduplicated
// twice on the way in: a spec whose result is already in the
// content-addressed cache completes without executing at all, and specs
// identical to an execution currently in flight coalesce onto it — every
// observer gets the leader's exact bytes.
func (s *Server) runJob(job *Job) {
	start := time.Now()
	s.mu.Lock()
	s.running++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}()

	// Running is kept in memory only; the record on disk stays queued
	// until the terminal write (see the job states above).
	s.mu.Lock()
	job.Status = StatusRunning
	s.mu.Unlock()
	ctx := s.baseCtx
	timeout := s.cfg.JobTimeout
	if t := job.Spec.TimeoutSec; t > 0 {
		timeout = time.Duration(t * float64(time.Second))
	}
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	// The cache key addresses the result's content: the collection
	// fingerprint (seed, units, simulator config, fault plan, retry
	// policy) plus the analysis kind and this server's timing-backend
	// identity. Admission validated the options CacheKey fingerprints,
	// so a key error fails the job.
	key, err := job.Spec.CacheKey(s.cfg.TimingFingerprint)
	if err != nil {
		_ = s.setStatus(job, StatusFailed, err.Error(), nil)
		s.recordDuration(time.Since(start))
		return
	}
	if s.cache != nil {
		if data, ok := s.cache.Get(key); ok {
			s.mu.Lock()
			job.Cached = true
			s.mu.Unlock()
			_ = s.setStatus(job, StatusDone, "", data)
			s.recordDuration(time.Since(start))
			return
		}
	}

	// execute runs the job under its own deadline and caches a success.
	execute := func() (json.RawMessage, error) {
		res, err := s.executeIsolated(ctx, job)
		if err == nil && s.cache != nil {
			// Best effort: a failed cache write costs a future
			// re-execution, not this job's result.
			_ = s.cache.Put(key, res)
		}
		return res, err
	}
	result, err, shared := s.flight.Do(ctx, key, execute)
	if shared && err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		// The leader's cancellation is not this job's verdict: the key
		// deliberately excludes TimeoutSec, so the leader may have run
		// under a shorter deadline than ours, and transient timeouts
		// must not fan out to every observer as permanent failures.
		// Execute under this job's own deadline instead. (If our own
		// context is the expired one — the follower gave up waiting,
		// or the server is draining — the fallback exits immediately
		// with the same error, and the switch below classifies it.)
		shared = false
		result, err = execute()
	}
	if shared {
		s.mu.Lock()
		job.Coalesced = true
		s.mu.Unlock()
	}

	switch {
	case err == nil:
		_ = s.setStatus(job, StatusDone, "", result)
		s.recordDuration(time.Since(start))
	case s.baseCtx.Err() != nil:
		// The server is draining or dying, not the job failing: leave it
		// resumable. Completed (unit, run) pairs are already on disk.
		_ = s.setStatus(job, StatusInterrupted, "", nil)
	default:
		_ = s.setStatus(job, StatusFailed, err.Error(), nil)
		s.recordDuration(time.Since(start))
	}
}

// executeIsolated runs the job, converting a panic into the same typed
// error the collection fan-out uses, so one buggy job cannot kill the
// service.
func (s *Server) executeIsolated(ctx context.Context, job *Job) (result json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &par.PanicError{Job: job.Seq, Value: r, Stack: debug.Stack()}
		}
	}()
	if s.cfg.Execute != nil {
		return s.cfg.Execute(ctx, job.ID, job.Spec, s.checkpointPath(job))
	}
	// Local execution checkpoints the collection and always resumes from
	// whatever a previous process finished.
	return ExecuteSpec(ctx, job.Spec, s.checkpointPath(job))
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the server: admission stops immediately, queued jobs
// stay persisted for the next process, and in-flight jobs get DrainGrace
// to finish before their contexts are cancelled (interrupting them at a
// checkpointed boundary). It returns once every worker has exited.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("server: already draining")
	}
	s.draining = true
	close(s.queue)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	grace := time.NewTimer(s.cfg.DrainGrace)
	defer grace.Stop()
	select {
	case <-done:
	case <-grace.C:
		s.cancel()
		<-done
	case <-ctx.Done():
		s.cancel()
		<-done
	}
	s.cancel()
	if s.stream != nil {
		// Workers are stopped and admission is closed, so no ingest can
		// race the log's close.
		_ = s.stream.close()
	}
	return nil
}

// Typed shedding errors -----------------------------------------------------

type shedError struct {
	msg        string
	overloaded bool
}

func (e *shedError) Error() string { return e.msg }

var (
	errOverloaded = &shedError{"server: queue full, retry later", true}
	errDraining   = &shedError{"server: draining, not accepting jobs", false}
)

// HTTP ----------------------------------------------------------------------

// Handler returns the service's HTTP API:
//
//	POST /jobs      submit a job (202, or 429 + Retry-After / 503 shedding)
//	GET  /jobs      list jobs
//	GET  /jobs/{id} one job's record (status, error, result)
//	GET  /healthz   process liveness
//	GET  /readyz    admission readiness (503 while draining)
//
// With Config.Stream.Enabled, the streaming ingest API is added:
//
//	POST /v1/stream          ingest one record (202 + its StreamDelta)
//	GET  /v1/stream/state    the incrementally maintained analysis summary
//	GET  /v1/stream/changes  the change log (?since=SEQ to tail)
//	POST /v1/stream/report   submit a batch re-analysis of the stream as a job
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	if s.stream != nil {
		mux.HandleFunc("POST /v1/stream", s.handleStreamIngest)
		mux.HandleFunc("GET /v1/stream/state", s.handleStreamState)
		mux.HandleFunc("GET /v1/stream/changes", s.handleStreamChanges)
		mux.HandleFunc("POST /v1/stream/report", s.handleStreamReport)
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		if s.cfg.Ready != nil && !s.cfg.Ready() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no workers connected"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return
	}
	job, err := s.Submit(spec)
	s.writeSubmitted(w, job, err)
}

// writeSubmitted answers a submission with what Submit returned: 202 and
// the job's id, or the status its error maps to — 429 + Retry-After for a
// full queue, 503 while draining, 400 for a spec Validate rejected.
func (s *Server) writeSubmitted(w http.ResponseWriter, job Job, err error) {
	var shed *shedError
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, map[string]string{"id": job.ID, "status": job.Status})
	case errors.As(err, &shed) && shed.overloaded:
		// Load shedding: tell the client when the queue likely has room
		// again rather than letting it hammer a full server.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSec()))
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": err.Error()})
	case errors.As(err, &shed):
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
	}
}

// Retry-After bounds: the hint never tells a client to come back sooner
// than a second or later than ten minutes, and falls back to the
// historical 5 s before the server has observed a single job.
const (
	defaultRetryAfterSec = 5
	minRetryAfterSec     = 1
	maxRetryAfterSec     = 600
	durRingSize          = 32
)

// recordDuration folds one terminal job's wall-clock into the ring the
// Retry-After estimate reads. Cache hits count too — they genuinely are
// the service rate a retrying client will experience.
func (s *Server) recordDuration(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.durs[s.durNext] = d.Seconds()
	s.durNext = (s.durNext + 1) % durRingSize
	if s.durN < durRingSize {
		s.durN++
	}
}

// retryAfterSec derives the Retry-After hint from observed recent job
// durations and the current backlog: with avg seconds per job, backlog
// jobs ahead of the retrying client and MaxConcurrent lanes, a queue slot
// should open in roughly avg*(backlog+1)/lanes seconds.
func (s *Server) retryAfterSec() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.durN == 0 {
		return defaultRetryAfterSec
	}
	var sum float64
	for i := 0; i < s.durN; i++ {
		sum += s.durs[i]
	}
	avg := sum / float64(s.durN)
	backlog := len(s.queue) + s.running
	est := int(math.Ceil(avg * float64(backlog+1) / float64(s.cfg.MaxConcurrent)))
	if est < minRetryAfterSec {
		return minRetryAfterSec
	}
	if est > maxRetryAfterSec {
		return maxRetryAfterSec
	}
	return est
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
