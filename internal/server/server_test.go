package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mobilebench/internal/checkpoint"
	"mobilebench/internal/par"
	"mobilebench/internal/workload"
)

// shortUnit returns the fastest-simulating analysis unit, so job tests pay
// sub-second collection times.
func shortUnit() string {
	units := workload.AnalysisUnits()
	sort.Slice(units, func(i, j int) bool { return units[i].Duration() < units[j].Duration() })
	return units[0].Name
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func submit(t *testing.T, ts *httptest.Server, spec Spec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// waitStatus polls until the job reaches a terminal (or requested) status.
func waitStatus(t *testing.T, s *Server, id, want string, timeout time.Duration) Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		job, ok := s.Get(id)
		if ok && job.Status == want {
			return job
		}
		if ok && want != StatusFailed && job.Status == StatusFailed {
			t.Fatalf("job %s failed: %s", id, job.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", id, job.Status, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestJobLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := submit(t, ts, Spec{Kind: "characterize", Units: []string{shortUnit()}, Runs: 1, Workers: 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	var acc struct{ ID, Status string }
	decodeBody(t, resp, &acc)
	if acc.ID == "" || acc.Status != StatusQueued {
		t.Fatalf("accepted = %+v", acc)
	}

	job := waitStatus(t, s, acc.ID, StatusDone, 60*time.Second)
	var res characterizeResult
	if err := json.Unmarshal(job.Result, &res); err != nil {
		t.Fatalf("result: %v", err)
	}
	if len(res.Units) != 1 || res.Units[0].Name != shortUnit() || res.Units[0].RuntimeSec <= 0 {
		t.Fatalf("result = %+v", res)
	}

	// The terminal record is on disk and the HTTP views agree.
	var got Job
	getResp, err := http.Get(ts.URL + "/jobs/" + acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, getResp, &got)
	if got.Status != StatusDone {
		t.Fatalf("GET /jobs/%s status = %q", acc.ID, got.Status)
	}
	listResp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []Job
	decodeBody(t, listResp, &list)
	if len(list) != 1 || list[0].ID != acc.ID {
		t.Fatalf("GET /jobs = %+v", list)
	}
}

// TestRunningIsNotPersisted pins the job record's write budget: picking a
// job up changes only its in-memory status. While it executes, GET reports
// it running, but its <id>.json still reads queued — a restart re-enqueues
// queued and running records alike, so persisting "running" would protect
// nothing.
func TestRunningIsNotPersisted(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	state := t.TempDir()
	s := newTestServer(t, Config{StateDir: state,
		Execute: func(ctx context.Context, _ string, _ Spec, _ string) (json.RawMessage, error) {
			close(started)
			<-release
			return json.RawMessage(`{"ok":true}`), nil
		}})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	job, err := s.Submit(Spec{Kind: "characterize", Units: []string{shortUnit()}, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started executing")
	}

	var got Job
	getResp, err := http.Get(ts.URL + "/jobs/" + job.ID)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, getResp, &got)
	if got.Status != StatusRunning {
		t.Errorf("GET status = %q while executing, want %q", got.Status, StatusRunning)
	}
	data, err := os.ReadFile(filepath.Join(state, job.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var disk Job
	if err := json.Unmarshal(data, &disk); err != nil {
		t.Fatal(err)
	}
	if disk.Status != StatusQueued {
		t.Errorf("on-disk status = %q while executing, want %q", disk.Status, StatusQueued)
	}

	close(release)
	waitStatus(t, s, job.ID, StatusDone, 10*time.Second)
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, spec := range []Spec{
		{Kind: "mine-bitcoin"},
		{Kind: "characterize", Units: []string{"No Such Benchmark"}},
		{Kind: "characterize", Runs: -1},
		{Kind: "characterize", Inject: "crash=7"},
		{Kind: "cluster", Algorithm: "dbscan"},
		// Specs the collection options reject: admission must refuse them
		// too, not accept a job that can only fail in the queue.
		{Kind: "characterize", Runs: 2, MinRuns: 3},
		{Kind: "characterize", Units: []string{"GFXBench Special", "GFXBench Special"}},
		// More clusters than units: k=19 over the 18 default units, and
		// the default k=5 over two named units.
		{Kind: "cluster", K: 19},
		{Kind: "cluster", Units: []string{"GFXBench Special", "PCMark Storage"}},
		// 1e10 s overflows time.Duration into a deadline already past.
		{Kind: "characterize", TimeoutSec: 1e10},
	} {
		resp := submit(t, ts, spec)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %+v: status = %d, want 400", spec, resp.StatusCode)
		}
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected specs left records behind: %+v", jobs)
	}
}

// slowSpec is a job that runs long enough to occupy a worker: every attempt
// hangs mid-run (clean_after=-1 keeps the hang on retries too) without
// altering the collected data.
func slowSpec(hangSec float64) Spec {
	return Spec{
		Kind:    "characterize",
		Units:   []string{shortUnit()},
		Runs:    2,
		Workers: 1,
		Inject:  fmt.Sprintf("hang=1,hang_sec=%g,clean_after=-1", hangSec),
	}
}

func TestLoadSheddingWith429(t *testing.T) {
	s := newTestServer(t, Config{QueueDepth: 1, MaxConcurrent: 1, DrainGrace: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One job running, one queued; within a handful of fast submissions the
	// bounded queue must shed.
	shed := 0
	var accepted []string
	for i := 0; i < 5; i++ {
		resp := submit(t, ts, slowSpec(10))
		switch resp.StatusCode {
		case http.StatusAccepted:
			var acc struct{ ID string }
			decodeBody(t, resp, &acc)
			accepted = append(accepted, acc.ID)
		case http.StatusTooManyRequests:
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Fatal("429 without Retry-After")
			}
			resp.Body.Close()
			shed++
		default:
			t.Fatalf("submission %d: status %d", i, resp.StatusCode)
		}
	}
	if shed == 0 {
		t.Fatal("bounded queue never shed load across 5 instant submissions")
	}
	if len(accepted)+shed != 5 {
		t.Fatalf("accepted %d + shed %d != 5", len(accepted), shed)
	}
	// A shed submission leaves no record to resurrect on restart.
	for _, job := range s.Jobs() {
		for _, id := range accepted {
			if job.ID == id {
				goto ok
			}
		}
		t.Fatalf("job %s on the books but never accepted", job.ID)
	ok:
	}
	_ = s.Shutdown(context.Background())
}

func TestPerJobDeadline(t *testing.T) {
	s := newTestServer(t, Config{DrainGrace: 50 * time.Millisecond})
	spec := slowSpec(30)
	spec.TimeoutSec = 0.2
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitStatus(t, s, job.ID, StatusFailed, 20*time.Second)
	if !strings.Contains(got.Error, "deadline") {
		t.Fatalf("error = %q, want a deadline error", got.Error)
	}
	_ = s.Shutdown(context.Background())
}

func TestServerDefaultJobTimeout(t *testing.T) {
	s := newTestServer(t, Config{JobTimeout: 200 * time.Millisecond, DrainGrace: 50 * time.Millisecond})
	job, err := s.Submit(slowSpec(30))
	if err != nil {
		t.Fatal(err)
	}
	got := waitStatus(t, s, job.ID, StatusFailed, 20*time.Second)
	if !strings.Contains(got.Error, "deadline") {
		t.Fatalf("error = %q, want a deadline error", got.Error)
	}
	_ = s.Shutdown(context.Background())
}

func TestPanicIsolation(t *testing.T) {
	var boom atomic.Bool
	boom.Store(true)
	s := newTestServer(t, Config{Execute: func(ctx context.Context, _ string, spec Spec, ckpt string) (json.RawMessage, error) {
		if boom.Load() {
			panic("boom: synthetic job bug")
		}
		return ExecuteSpec(ctx, spec, ckpt)
	}})
	job, err := s.Submit(Spec{Kind: "characterize", Units: []string{shortUnit()}, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := waitStatus(t, s, job.ID, StatusFailed, 10*time.Second)
	if !strings.Contains(got.Error, "panicked") || !strings.Contains(got.Error, "boom") {
		t.Fatalf("error = %q, want a par.PanicError rendering", got.Error)
	}
	// The server survived: it still runs jobs.
	boom.Store(false)
	job2, err := s.Submit(Spec{Kind: "characterize", Units: []string{shortUnit()}, Runs: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, job2.ID, StatusDone, 60*time.Second)
	_ = s.Shutdown(context.Background())
	// Compile-time pin: the error type really is the fan-out's.
	var _ *par.PanicError
}

// TestDrainAndResume is the tentpole acceptance test: SIGTERM-style drain
// interrupts an in-flight job at a checkpointed boundary and leaves a
// queued job untouched; a restarted server resumes both to completion, and
// the interrupted job's result is byte-identical to an uninterrupted run
// of the same spec.
func TestDrainAndResume(t *testing.T) {
	state := t.TempDir()
	s1 := newTestServer(t, Config{StateDir: state, DrainGrace: 100 * time.Millisecond})

	// Job 0 runs (hanging mid-run, so it is reliably in flight); job 1 waits
	// in the queue behind it.
	running, err := s1.Submit(slowSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s1.Submit(Spec{Kind: "characterize", Units: []string{shortUnit()}, Runs: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the running job has at least one (unit, run) durable.
	ckpt := s1.checkpointPath(&Job{ID: running.ID})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if snap, err := checkpoint.Load(ckpt, 0); err == nil && len(snap.Records) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("running job never checkpointed a pair")
		}
		time.Sleep(20 * time.Millisecond)
	}

	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if j, _ := s1.Get(running.ID); j.Status != StatusInterrupted {
		t.Fatalf("in-flight job drained to %q, want %q", j.Status, StatusInterrupted)
	}
	if j, _ := s1.Get(queued.ID); j.Status != StatusQueued {
		t.Fatalf("queued job drained to %q, want %q", j.Status, StatusQueued)
	}

	// "Restart": a new server over the same state dir picks both up —
	// zero accepted jobs lost.
	s2 := newTestServer(t, Config{StateDir: state})
	resumed := waitStatus(t, s2, running.ID, StatusDone, 120*time.Second)
	waitStatus(t, s2, queued.ID, StatusDone, 120*time.Second)

	// An uninterrupted job with the identical spec must produce the same
	// bytes — the resume restored, not re-derived, the finished pairs.
	fresh, err := s2.Submit(slowSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	baseline := waitStatus(t, s2, fresh.ID, StatusDone, 120*time.Second)
	if !bytes.Equal(resumed.Result, baseline.Result) {
		t.Fatalf("resumed result differs from uninterrupted baseline:\n%s\nvs\n%s", resumed.Result, baseline.Result)
	}
	_ = s2.Shutdown(context.Background())
}

func TestHealthAndReadiness(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, resp.StatusCode)
		}
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Draining: alive but not ready, and submissions are refused with 503.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", resp.StatusCode)
	}
	resp = submit(t, ts, Spec{Kind: "characterize", Units: []string{shortUnit()}, Runs: 1})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
}
