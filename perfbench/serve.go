package main

// serve-jobs: an in-process server with a result cache and two job lanes,
// driven over loopback HTTP by a closed loop of two clients. Each round
// both clients submit a job together (POST /jobs), poll GET /jobs/{id}
// until it is done, and only then start the next round. The seeded round
// mix (see jobGen) yields cold executions, cache hits and coalesced
// duplicates; a job's class is read from its record's cached/coalesced
// flags.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mobilebench/internal/checkpoint"
	"mobilebench/internal/dist"
	"mobilebench/internal/server"
)

const (
	serveBoots = 10
	// historyLen is the finished jobs the state directory holds at boot.
	historyLen = 300
	// memRound is the round after which the live heap is measured: the
	// server keeps every job record, so its heap grows with the jobs done,
	// and a fixed count keeps the figure independent of throughput.
	memRound = 100
	// jobDeadline bounds one job from submission to done; a job past it
	// has timed out.
	jobDeadline = 60 * time.Second
	// Status polls run back to back for a job's first spinFor, so a cache
	// hit's latency carries no sleep and wake-up delay, then back off to a
	// tenth of the job's age: an execution's latency is measured to within
	// about 10% without polling it hundreds of times.
	spinFor = 10 * time.Millisecond
	pollMax = 20 * time.Millisecond
)

func serveConfig(dir string) server.Config {
	return server.Config{
		StateDir:      filepath.Join(dir, "state"),
		CacheDir:      filepath.Join(dir, "cache"),
		MaxConcurrent: 2,
		QueueDepth:    8,
	}
}

// jobOutcome is one client's view of one job.
type jobOutcome struct {
	submitted time.Time
	admit     time.Duration   // POST /jobs round trip
	latency   time.Duration   // submission to observed done
	reads     []time.Duration // every status poll that answered
	readFails int
	job       server.Job
	record    []byte // the final GET /jobs/{id} body
	shed      bool
	err       error
}

// submitAndWait runs one job through the HTTP API.
func submitAndWait(ctx context.Context, s *served, spec server.Spec) jobOutcome {
	var out jobOutcome
	body, err := json.Marshal(spec)
	if err != nil {
		out.err = err
		return out
	}
	out.submitted = time.Now()
	status, resp, err := s.do(ctx, http.MethodPost, "/jobs", body)
	out.admit = time.Since(out.submitted)
	switch {
	case err != nil:
		out.err = fmt.Errorf("submitting: %w", err)
		return out
	case refused(status):
		out.shed = true
		out.err = fmt.Errorf("submission refused with %d", status)
		return out
	case status != http.StatusAccepted:
		out.err = fmt.Errorf("submission answered %d: %s", status, resp)
		return out
	}
	var acc struct{ ID string }
	if err := json.Unmarshal(resp, &acc); err != nil {
		out.err = fmt.Errorf("decoding the admission: %w", err)
		return out
	}
	for {
		age := time.Since(out.submitted)
		if age > jobDeadline {
			out.err = fmt.Errorf("job %s timed out", acc.ID)
			return out
		}
		t := time.Now()
		status, resp, err := s.do(ctx, http.MethodGet, "/jobs/"+acc.ID, nil)
		if err != nil || status != http.StatusOK {
			out.readFails++
		} else {
			out.reads = append(out.reads, time.Since(t))
			var job server.Job
			if err := json.Unmarshal(resp, &job); err != nil {
				out.err = fmt.Errorf("decoding job %s: %w", acc.ID, err)
				return out
			}
			switch job.Status {
			case server.StatusDone:
				out.latency = time.Since(out.submitted)
				out.job, out.record = job, resp
				return out
			case server.StatusFailed, server.StatusInterrupted:
				out.err = fmt.Errorf("job %s ended %s: %s", acc.ID, job.Status, job.Error)
				return out
			}
		}
		if age > spinFor {
			time.Sleep(min(age/10, pollMax))
		}
	}
}

// execTracer wraps server.ExecuteSpec as the server's Execute hook in a
// traced run, timing each execution and noting when it started.
type execTracer struct {
	mu      sync.Mutex
	started map[string]time.Time
	byKind  map[string]*Latencies
}

func newExecTracer() *execTracer {
	return &execTracer{started: make(map[string]time.Time), byKind: make(map[string]*Latencies)}
}

func (x *execTracer) execute(ctx context.Context, id string, spec server.Spec, ckpt string) (json.RawMessage, error) {
	t := time.Now()
	res, err := server.ExecuteSpec(ctx, spec, ckpt)
	d := time.Since(t)
	x.mu.Lock()
	defer x.mu.Unlock()
	x.started[id] = t
	l := x.byKind[spec.Kind]
	if l == nil {
		l = &Latencies{}
		x.byKind[spec.Kind] = l
	}
	if err != nil {
		l.AddFailed()
	} else {
		l.Add(d)
	}
	return res, err
}

func runServeJobs(ctx context.Context, o runOpts) (*Report, error) {
	rep := newReport()
	var tracer *execTracer
	if o.traced {
		tracer = newExecTracer()
	}
	// Set-up is a server boot that loads a generator-written history of
	// finished jobs; the last boot serves the run.
	cfg := serveConfig(o.work)
	if tracer != nil {
		cfg.Execute = tracer.execute
	}
	if err := writeHistory(cfg.StateDir, o.seed); err != nil {
		return nil, err
	}
	var boots []float64
	var s *served
	for i := 0; i < serveBoots; i++ {
		b, d, err := boot(ctx, cfg)
		if err != nil {
			return nil, err
		}
		boots = append(boots, d.Seconds())
		if i == serveBoots-1 {
			s = b
			break
		}
		if err := b.close(ctx); err != nil {
			return nil, err
		}
	}
	rep.EndToEnd["setup_s"] = median(boots)

	var (
		all, cold, cached, coalesced, admit, reads Latencies
		polls, shed, hitRounds, hits               int
		dupRounds, dupCoalesced                    int
		results                                    = make(map[string][]byte) // spec -> first result bytes
		executed                                   = make(map[string]bool)   // specs that ran cold
		derived                                    = make(map[string]bool)   // specs answered from cache or a leader
		records                                    [][]byte
		submittedAt                                = make(map[string]time.Time)
		total                                      Ledger
		led                                        *ledger
		gen                                        = newJobGen(o.seed)
	)
	if o.traced {
		var err error
		if led, err = startLedger(); err != nil {
			_ = s.close(ctx)
			return nil, err
		}
	}
	start := time.Now()
	for rounds := 1; time.Since(start) < o.seconds; rounds++ {
		if rounds == memRound+1 {
			rep.EndToEnd["mem_live_mb"] = liveHeapMB()
		}
		rd := gen.next()
		var outs [2]jobOutcome
		var wg sync.WaitGroup
		for i := range rd.Specs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[i] = submitAndWait(ctx, s, rd.Specs[i])
			}()
		}
		wg.Wait()
		switch rd.Kind {
		case roundCached:
			hitRounds++
		case roundCoalesce:
			dupRounds++
		}
		for i, out := range outs {
			rep.Attempted += 1 + len(out.reads) + out.readFails
			rep.Failed += out.readFails
			polls += len(out.reads) + out.readFails
			for _, r := range out.reads {
				reads.Add(r)
			}
			for range out.readFails {
				reads.AddFailed()
			}
			admit.Add(out.admit)
			if out.err != nil {
				rep.Failed++
				all.AddFailed()
				switch {
				case rd.Kind == roundCached:
					cached.AddFailed()
				case rd.Kind == roundCoalesce && i == 1:
					coalesced.AddFailed()
				default:
					cold.AddFailed()
				}
				if out.shed {
					shed++
				}
				if rep.Failed <= 3 {
					rep.note("job failed: %v", out.err)
				}
				continue
			}
			all.Add(out.latency)
			key, err := json.Marshal(rd.Specs[i])
			if err != nil {
				return nil, err
			}
			switch {
			case out.job.Cached:
				cached.Add(out.latency)
				derived[string(key)] = true
				if rd.Kind == roundCached {
					hits++
				}
			case out.job.Coalesced:
				coalesced.Add(out.latency)
				derived[string(key)] = true
				dupCoalesced++
			default:
				cold.Add(out.latency)
				executed[string(key)] = true
			}
			if prev, ok := results[string(key)]; !ok {
				results[string(key)] = out.job.Result
			} else if !bytes.Equal(prev, out.job.Result) {
				rep.fail("job %s (%s round) returned %d bytes that differ from the spec's earlier result", out.job.ID, rd.Kind, len(out.job.Result))
			}
			submittedAt[out.job.ID] = out.submitted
			if len(records) < 256 {
				records = append(records, out.record)
			}
		}
	}
	window := time.Since(start).Seconds()
	if _, ok := rep.EndToEnd["mem_live_mb"]; !ok {
		rep.EndToEnd["mem_live_mb"] = liveHeapMB()
	}
	if led != nil {
		if err := led.stop(&total); err != nil {
			_ = s.close(ctx)
			return nil, err
		}
	}
	if err := s.close(ctx); err != nil {
		return nil, fmt.Errorf("stopping the server: %w", err)
	}
	for key := range derived {
		if !executed[key] {
			rep.fail("a spec was answered from the cache or a leader but never executed cold in this run")
		}
	}

	rep.setOps(&all, window, msOf(jobDeadline))
	rep.noteQuantiles("job_cold", &cold)
	rep.noteQuantiles("job_cached", &cached)
	rep.noteQuantiles("job_coalesced", &coalesced)
	rep.noteQuantiles("read", &reads)
	rep.note("jobs_per_s %.4f 1/s  fail_frac %.6f  (%d ops attempted, %d failed, %d shed)",
		rep.EndToEnd["ops_per_s"], float64(rep.Failed)/float64(max(rep.Attempted, 1)), rep.Attempted, rep.Failed, shed)
	hitRatio := float64(hits) / float64(max(2*hitRounds, 1))
	coalesceRatio := float64(dupCoalesced) / float64(max(dupRounds, 1))
	rep.note("cache_hit_ratio %.4f over %d repeat jobs, coalesce_ratio %.4f over %d duplicate pairs", hitRatio, 2*hitRounds, coalesceRatio, dupRounds)
	if !o.traced {
		return rep, nil
	}

	total.metrics(rep.Layer, 1)
	total.check(rep)
	m := rep.Layer
	m["server.admit_ms"] = admit.Quantile(0.5).Value
	m["server.cache_hit_ratio"] = hitRatio
	m["server.coalesce_ratio"] = coalesceRatio
	m["server.shed"] = float64(shed)
	m["server.status_polls"] = float64(polls)
	m["server.status_read_ms"] = reads.Quantile(0.5).Value
	var waits Latencies
	for id, t := range tracer.started {
		if sub, ok := submittedAt[id]; ok {
			waits.Add(t.Sub(sub))
		}
	}
	m["server.queue_wait_ms"] = medianOr0(&waits)
	for _, kind := range []string{"characterize", "streamreport"} {
		if l := tracer.byKind[kind]; l != nil {
			m["server.execute_"+kind+"_ms"] = medianOr0(l)
		}
	}
	if err := probeStorage(o.work, cfg.CacheDir, gen.fresh, results, records, m); err != nil {
		return nil, err
	}
	return rep, nil
}

// writeHistory writes the finished-job history into stateDir in the
// server's own record format.
func writeHistory(stateDir string, seed uint64) error {
	jobs, err := historyJobs(seed, historyLen)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return err
	}
	for _, job := range jobs {
		data, err := json.MarshalIndent(job, "", "  ")
		if err != nil {
			return err
		}
		if err := checkpoint.WriteFile(filepath.Join(stateDir, job.ID+".json"), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// probeStorage times, call by call, the storage layers a job passes
// through, on this run's own specs, results and job records: the cache
// key, cache reads of the server's entries, cache writes into a scratch
// cache, and the atomic write every job status change makes.
func probeStorage(work, cacheDir string, specs []server.Spec, results map[string][]byte, records [][]byte, m map[string]float64) error {
	var keyT, getT, putT, wfT Latencies
	live, err := dist.OpenCache(cacheDir)
	if err != nil {
		return err
	}
	scratch, err := dist.OpenCache(filepath.Join(work, "cache-probe"))
	if err != nil {
		return err
	}
	for _, sp := range specs {
		t := time.Now()
		key, err := sp.CacheKey("")
		keyT.Add(time.Since(t))
		if err != nil {
			return fmt.Errorf("cache key: %w", err)
		}
		t = time.Now()
		_, ok := live.Get(key)
		if ok {
			getT.Add(time.Since(t))
		}
		spec, err := json.Marshal(sp)
		if err != nil {
			return err
		}
		if res, ok := results[string(spec)]; ok {
			t = time.Now()
			if err := scratch.Put(key, res); err != nil {
				return fmt.Errorf("cache put: %w", err)
			}
			putT.Add(time.Since(t))
		}
	}
	dir := filepath.Join(work, "writefile-probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, rec := range records {
		t := time.Now()
		if err := checkpoint.WriteFile(filepath.Join(dir, fmt.Sprintf("job-%06d.json", i)), rec, 0o644); err != nil {
			return fmt.Errorf("writing a job record: %w", err)
		}
		wfT.Add(time.Since(t))
	}
	m["server.cachekey_us"] = medianOr0(&keyT) * 1e3
	m["dist.cache_get_us"] = medianOr0(&getT) * 1e3
	m["dist.cache_put_ms"] = medianOr0(&putT)
	m["checkpoint.writefile_ms"] = medianOr0(&wfT)
	return nil
}
