// Tests for the dedup layer (content-addressed cache, request
// coalescing), the adaptive Retry-After hint, the admission-order
// recovery sort and the Shutdown/Submit race: submit-during-drain must
// either shed or be persisted-then-resumed, never lost.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mobilebench/internal/checkpoint"
	"mobilebench/internal/core"
)

// TestFingerprintPins pins the bytes every persisted artifact is keyed
// by: the checkpoint fingerprint of the default options and the cache key
// of a small characterize spec. A change here orphans every snapshot and
// cache entry already on disk, so it must be deliberate.
func TestFingerprintPins(t *testing.T) {
	cases := []struct {
		name string
		got  func() (string, error)
		want string
	}{
		{"checkpoint fingerprint", func() (string, error) {
			fp, err := core.Options{}.CheckpointFingerprint()
			return fmt.Sprintf("%#016x", fp), err
		}, "0x981c001531e26bc2"},
		{"cache key", func() (string, error) {
			return Spec{Kind: "characterize", Units: []string{"Antutu Mem"}, Runs: 1, Seed: 7}.CacheKey("")
		}, "84be19089ab88a390f6c3c5ff706f2c4973b8654789903d24bc7e8ceae068989"},
		{"cache key with injection", func() (string, error) {
			return Spec{Kind: "characterize", Units: []string{"Antutu Mem"}, Runs: 1, Seed: 7, Inject: "crash=0.2,seed=7"}.CacheKey("")
		}, "ac3d81a228bcb364ed1c48683c269122174a088020aaf6b03e849c443c91090f"},
	}
	for _, tc := range cases {
		got, err := tc.got()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCacheKeyNormalizesDefaults(t *testing.T) {
	base := Spec{Kind: "characterize", Units: []string{shortUnit()}}
	k1, err := base.CacheKey("")
	if err != nil {
		t.Fatal(err)
	}
	// The key is a full sha256 of the canonical spec string: wide enough
	// that distinct specs silently sharing a cache entry is a
	// cryptographic event, not a 64-bit birthday bound.
	if len(k1) != 64 {
		t.Fatalf("cache key %q has %d hex chars, want 64 (sha256)", k1, len(k1))
	}
	// Execution-only knobs and explicit default spellings share the key.
	same := []Spec{
		{Kind: "characterize", Units: []string{shortUnit()}, Runs: 3},
		{Kind: "characterize", Units: []string{shortUnit()}, Workers: 4},
		{Kind: "characterize", Units: []string{shortUnit()}, TimeoutSec: 9},
	}
	for _, sp := range same {
		k, err := sp.CacheKey("")
		if err != nil {
			t.Fatal(err)
		}
		if k != k1 {
			t.Errorf("spec %+v key %s != base key %s", sp, k, k1)
		}
	}
	// Result-affecting knobs split the key.
	diff := []Spec{
		{Kind: "subset", Units: []string{shortUnit()}},
		{Kind: "characterize", Units: []string{shortUnit()}, Runs: 2},
		{Kind: "characterize", Units: []string{shortUnit()}, Seed: 7},
		{Kind: "characterize", Units: []string{shortUnit()}, Inject: "nan=0.5,seed=3"},
		{Kind: "characterize", Units: []string{shortUnit()}, MaxRetries: 2},
		{Kind: "characterize", Units: []string{shortUnit()}, MinRuns: 1},
	}
	for _, sp := range diff {
		k, err := sp.CacheKey("")
		if err != nil {
			t.Fatal(err)
		}
		if k == k1 {
			t.Errorf("spec %+v key collides with base", sp)
		}
	}
	// The cluster kind's defaults normalize too.
	c1, err := Spec{Kind: "cluster", Units: []string{shortUnit()}}.CacheKey("")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Spec{Kind: "cluster", Units: []string{shortUnit()}, K: 5, Algorithm: "kmeans"}.CacheKey("")
	if err != nil {
		t.Fatal(err)
	}
	c3, err := Spec{Kind: "cluster", Units: []string{shortUnit()}, K: 4}.CacheKey("")
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("default cluster spellings split the key")
	}
	if c1 == c3 || c1 == k1 {
		t.Error("distinct cluster parameters share a key")
	}
}

// TestCacheKeyTimingFingerprint: the serving process's timing-backend
// identity splits the key — a persistent cache shared across servers with
// different -timing-model configurations must never serve one
// configuration's bytes under another — while the empty fingerprint (the
// in-process models, or an exact external one) keys exactly as before.
func TestCacheKeyTimingFingerprint(t *testing.T) {
	base := Spec{Kind: "characterize", Units: []string{shortUnit()}}
	plain, err := base.CacheKey("")
	if err != nil {
		t.Fatal(err)
	}
	qdram, err := base.CacheKey("cosim:qdram")
	if err != nil {
		t.Fatal(err)
	}
	if qdram == plain {
		t.Fatal("a non-exact timing fingerprint did not split the cache key")
	}
	other, err := base.CacheKey("cosim:other")
	if err != nil {
		t.Fatal(err)
	}
	if other == qdram || other == plain {
		t.Fatal("distinct timing fingerprints share a key")
	}
	again, err := base.CacheKey("cosim:qdram")
	if err != nil {
		t.Fatal(err)
	}
	if again != qdram {
		t.Fatal("equal timing fingerprints split the key")
	}
}

// TestCacheIsolatedByTimingFingerprint shares one cache directory between
// two servers whose Config.TimingFingerprint differs: the second server
// must re-execute rather than answer from the first's entry.
func TestCacheIsolatedByTimingFingerprint(t *testing.T) {
	spec := Spec{Kind: "characterize", Units: []string{shortUnit()}, Runs: 1, Workers: 1}
	cacheDir := t.TempDir()

	fill := newTestServer(t, Config{CacheDir: cacheDir})
	j1, err := fill.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, fill, j1.ID, StatusDone, 60*time.Second)
	_ = fill.Shutdown(context.Background())

	// Same cache dir, same spec, different timing identity: a hit here
	// would serve in-process bytes as a qdram collection's result.
	var mu sync.Mutex
	execs := 0
	s := newTestServer(t, Config{CacheDir: cacheDir, TimingFingerprint: "cosim:qdram",
		Execute: func(ctx context.Context, _ string, spec Spec, ckpt string) (json.RawMessage, error) {
			mu.Lock()
			execs++
			mu.Unlock()
			return ExecuteSpec(ctx, spec, ckpt)
		}})
	defer s.Shutdown(context.Background())
	j2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitStatus(t, s, j2.ID, StatusDone, 60*time.Second)
	if got.Cached {
		t.Fatal("a differently-timed server answered from the shared cache")
	}
	mu.Lock()
	n := execs
	mu.Unlock()
	if n != 1 {
		t.Fatalf("executions = %d, want 1 (the fingerprint must force a re-execution)", n)
	}
}

// TestCacheHitByteIdenticalToColdExecution is the satellite acceptance
// test: a cache hit returns exactly the bytes a cold execution produces,
// without executing anything.
func TestCacheHitByteIdenticalToColdExecution(t *testing.T) {
	spec := Spec{Kind: "characterize", Units: []string{shortUnit()}, Runs: 1, Workers: 1}

	// Cold baseline on a cache-less server.
	cold := newTestServer(t, Config{})
	j, err := cold.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	baseline := waitStatus(t, cold, j.ID, StatusDone, 60*time.Second)
	_ = cold.Shutdown(context.Background())

	// Cached server: the first submission executes and fills the cache,
	// the second must answer from it without executing.
	var mu sync.Mutex
	execs := 0
	s := newTestServer(t, Config{CacheDir: t.TempDir(),
		Execute: func(ctx context.Context, _ string, spec Spec, ckpt string) (json.RawMessage, error) {
			mu.Lock()
			execs++
			mu.Unlock()
			return ExecuteSpec(ctx, spec, ckpt)
		}})
	defer s.Shutdown(context.Background())
	j1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	warm := waitStatus(t, s, j1.ID, StatusDone, 60*time.Second)
	if warm.Cached {
		t.Fatal("first execution reported a cache hit")
	}
	j2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	hit := waitStatus(t, s, j2.ID, StatusDone, 60*time.Second)
	if !hit.Cached {
		t.Fatal("second identical submission did not hit the cache")
	}
	mu.Lock()
	n := execs
	mu.Unlock()
	if n != 1 {
		t.Fatalf("executions = %d, want 1 (the cold fill)", n)
	}
	if !bytes.Equal(warm.Result, baseline.Result) || !bytes.Equal(hit.Result, baseline.Result) {
		t.Fatalf("cache path changed the bytes:\ncold %s\nwarm %s\nhit  %s",
			baseline.Result, warm.Result, hit.Result)
	}
}

// TestCoalescedByteIdenticalAndSingleExecution holds an execution open
// while an identical job arrives on a second lane: the two must share one
// execution and one set of bytes, with exactly one marked coalesced.
func TestCoalescedByteIdenticalAndSingleExecution(t *testing.T) {
	spec := Spec{Kind: "characterize", Units: []string{shortUnit()}, Runs: 1, Workers: 1}
	var mu sync.Mutex
	execs := 0
	release := make(chan struct{})
	s := newTestServer(t, Config{MaxConcurrent: 2,
		Execute: func(ctx context.Context, _ string, spec Spec, ckpt string) (json.RawMessage, error) {
			mu.Lock()
			execs++
			mu.Unlock()
			<-release // hold the leader until the follower has coalesced
			return ExecuteSpec(ctx, spec, ckpt)
		}})
	defer s.Shutdown(context.Background())

	j1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Both lanes running: one leading, one waiting on the leader's call.
	deadline := time.Now().Add(10 * time.Second)
	for {
		a, _ := s.Get(j1.ID)
		b, _ := s.Get(j2.ID)
		if a.Status == StatusRunning && b.Status == StatusRunning && s.flight.Inflight() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs stuck in %q/%q", a.Status, b.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(release)
	r1 := waitStatus(t, s, j1.ID, StatusDone, 60*time.Second)
	r2 := waitStatus(t, s, j2.ID, StatusDone, 60*time.Second)

	mu.Lock()
	defer mu.Unlock()
	if execs != 1 {
		t.Fatalf("concurrent identical submissions executed %d times, want 1", execs)
	}
	if r1.Coalesced == r2.Coalesced {
		t.Fatalf("exactly one job must be the coalesced follower: %v / %v", r1.Coalesced, r2.Coalesced)
	}
	if !bytes.Equal(r1.Result, r2.Result) {
		t.Fatalf("coalesced observers diverged:\n%s\nvs\n%s", r1.Result, r2.Result)
	}
}

// TestCoalescedFollowerDoesNotAdoptLeaderTimeout: coalescing is keyed on
// CacheKey, which deliberately excludes TimeoutSec — so a follower with a
// roomier deadline must not inherit the leader's context-cancellation
// verdict as a permanent failure. When the leader times out, the follower
// falls back to executing under its own deadline and succeeds.
func TestCoalescedFollowerDoesNotAdoptLeaderTimeout(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	release := make(chan struct{})
	s := newTestServer(t, Config{MaxConcurrent: 2,
		Execute: func(ctx context.Context, _ string, _ Spec, _ string) (json.RawMessage, error) {
			mu.Lock()
			calls++
			n := calls
			mu.Unlock()
			if n == 1 {
				// The leader rides its (short) deadline into the ground
				// once the follower has coalesced onto it.
				<-release
				return nil, context.DeadlineExceeded
			}
			return json.RawMessage(`{"ok":true}`), nil
		}})
	defer s.Shutdown(context.Background())

	leaderSpec := Spec{Kind: "characterize", Units: []string{shortUnit()}, Runs: 1, Workers: 1, TimeoutSec: 30}
	followerSpec := leaderSpec
	followerSpec.TimeoutSec = 0 // same cache key — execution-only knob

	j1, err := s.Submit(leaderSpec)
	if err != nil {
		t.Fatal(err)
	}
	// Only submit the follower once the leader owns the in-flight entry,
	// so leadership is deterministic.
	deadline := time.Now().Add(10 * time.Second)
	for s.flight.Inflight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never entered the flight")
		}
		time.Sleep(10 * time.Millisecond)
	}
	j2, err := s.Submit(followerSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, j2.ID, StatusRunning, 10*time.Second)
	// Give the follower a beat to reach the flight's wait before the
	// leader's deadline verdict lands.
	time.Sleep(100 * time.Millisecond)
	close(release)

	r1 := waitStatus(t, s, j1.ID, StatusFailed, 30*time.Second)
	if !strings.Contains(r1.Error, "deadline") {
		t.Fatalf("leader error = %q, want its own deadline expiry", r1.Error)
	}
	r2 := waitStatus(t, s, j2.ID, StatusDone, 30*time.Second)
	if r2.Coalesced {
		t.Fatal("fallback execution still marked coalesced")
	}
	if string(r2.Result) != `{"ok":true}` {
		t.Fatalf("follower result = %s, want its own execution's bytes", r2.Result)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 2 {
		t.Fatalf("executions = %d, want 2 (timed-out leader + follower fallback)", calls)
	}
}

func TestAdaptiveRetryAfter(t *testing.T) {
	s := newTestServer(t, Config{QueueDepth: 1, MaxConcurrent: 1, DrainGrace: 50 * time.Millisecond})
	defer s.Shutdown(context.Background())

	// No history: the historical constant.
	if got := s.retryAfterSec(); got != defaultRetryAfterSec {
		t.Fatalf("cold retryAfterSec = %d, want %d", got, defaultRetryAfterSec)
	}
	// With observed durations, the hint tracks mean duration × backlog.
	for i := 0; i < 4; i++ {
		s.recordDuration(8 * time.Second)
	}
	if got := s.retryAfterSec(); got != 8 { // empty backlog: one job's worth
		t.Fatalf("idle retryAfterSec = %d, want 8", got)
	}
	s.mu.Lock()
	s.running = 1
	s.mu.Unlock()
	if got := s.retryAfterSec(); got != 16 { // one ahead of you, plus yours
		t.Fatalf("busy retryAfterSec = %d, want 16", got)
	}
	s.mu.Lock()
	s.running = 0
	s.mu.Unlock()
	// The ring evicts stale samples and the estimate clamps at the ceiling.
	for i := 0; i < durRingSize; i++ {
		s.recordDuration(time.Duration(maxRetryAfterSec+1000) * time.Second)
	}
	if got := s.retryAfterSec(); got != maxRetryAfterSec {
		t.Fatalf("retryAfterSec = %d, want the %d ceiling", got, maxRetryAfterSec)
	}
	// Sub-second jobs floor at 1, not 0 (Retry-After: 0 invites a stampede).
	for i := 0; i < durRingSize; i++ {
		s.recordDuration(10 * time.Millisecond)
	}
	if got := s.retryAfterSec(); got != minRetryAfterSec {
		t.Fatalf("retryAfterSec = %d, want the %d floor", got, minRetryAfterSec)
	}
}

func TestRetryAfterHeaderAdapts(t *testing.T) {
	s := newTestServer(t, Config{QueueDepth: 1, MaxConcurrent: 1, DrainGrace: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 4; i++ {
		s.recordDuration(30 * time.Second)
	}
	// Saturate: one running, one queued, then shed.
	var header string
	for i := 0; i < 8; i++ {
		resp := submit(t, ts, slowSpec(10))
		resp.Body.Close()
		if resp.StatusCode == 429 {
			header = resp.Header.Get("Retry-After")
			break
		}
	}
	if header == "" {
		t.Fatal("saturated queue never shed")
	}
	secs, err := strconv.Atoi(header)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", header, err)
	}
	// Mean 30s with at least the running job ahead: two jobs' worth or
	// more, far from the old static constant.
	if secs < 60 {
		t.Fatalf("Retry-After = %d, want >= 60 with a 30s mean and a busy lane", secs)
	}
	_ = s.Shutdown(context.Background())
}

// TestShutdownRacingSubmit hammers Submit from several goroutines while
// the server drains: every submission must either return a shedding error
// or be durably persisted and resumed to completion by a restart — no
// accepted job may be lost.
func TestShutdownRacingSubmit(t *testing.T) {
	state := t.TempDir()
	cache := t.TempDir()
	spec := Spec{Kind: "characterize", Units: []string{shortUnit()}, Runs: 1, Workers: 1}

	s1 := newTestServer(t, Config{StateDir: state, CacheDir: cache, QueueDepth: 4, DrainGrace: 20 * time.Millisecond})
	var mu sync.Mutex
	var accepted []string
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				job, err := s1.Submit(spec)
				if err != nil {
					var shed *shedError
					if !errors.As(err, &shed) {
						t.Errorf("Submit failed with a non-shedding error: %v", err)
						return
					}
					continue
				}
				mu.Lock()
				accepted = append(accepted, job.ID)
				mu.Unlock()
			}
		}()
	}
	// Let submissions build up, then drain right through them.
	time.Sleep(50 * time.Millisecond)
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	mu.Lock()
	ids := append([]string(nil), accepted...)
	mu.Unlock()
	if len(ids) == 0 {
		t.Fatal("no submission was ever accepted; the race never happened")
	}
	// Every accepted job is still on the books after the drain...
	for _, id := range ids {
		if _, ok := s1.Get(id); !ok {
			t.Fatalf("accepted job %s vanished during the drain", id)
		}
	}
	// ...and a restart over the same state dir resumes each to done.
	s2 := newTestServer(t, Config{StateDir: state, CacheDir: cache})
	for _, id := range ids {
		job := waitStatus(t, s2, id, StatusDone, 120*time.Second)
		if len(job.Result) == 0 {
			t.Fatalf("job %s done without a result", id)
		}
	}
	_ = s2.Shutdown(context.Background())
}

// TestRecoveryPreservesAdmissionOrder hand-builds a state directory whose
// listing order (IDs) and sequence numbers both contradict submission
// time: the replay order must follow SubmittedAt, with Seq only breaking
// ties (legacy zero-time records sorting first).
func TestRecoveryPreservesAdmissionOrder(t *testing.T) {
	state := t.TempDir()
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	records := []Job{
		{ID: "job-000000", Seq: 0, SubmittedAt: base.Add(2 * time.Hour)}, // listed first, newest
		{ID: "job-000001", Seq: 1, SubmittedAt: base},                    // oldest
		{ID: "job-000002", Seq: 2, SubmittedAt: base.Add(time.Hour)},
		{ID: "job-000003", Seq: 3},                                   // legacy record, no SubmittedAt
		{ID: "job-000004", Seq: 4, SubmittedAt: base.Add(time.Hour)}, // ties 000002 on time; Seq breaks it
	}
	for i := range records {
		records[i].Status = StatusQueued
		records[i].Spec = Spec{Kind: "characterize", Units: []string{shortUnit()}, Runs: 1, Workers: 1}
		data, err := json.MarshalIndent(records[i], "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := checkpoint.WriteFile(filepath.Join(state, records[i].ID+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// White-box: loadState is the sole re-enqueue source (New pushes its
	// result into the queue verbatim), so its order is the replay order.
	s := &Server{cfg: Config{StateDir: state}, jobs: make(map[string]*Job)}
	unfinished, err := s.loadState()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"job-000003", "job-000001", "job-000002", "job-000004", "job-000000"}
	if len(unfinished) != len(want) {
		t.Fatalf("recovered %d jobs, want %d", len(unfinished), len(want))
	}
	for i, job := range unfinished {
		if job.ID != want[i] {
			got := make([]string, len(unfinished))
			for j, u := range unfinished {
				got[j] = u.ID
			}
			t.Fatalf("replay order = %v, want %v (admission order)", got, want)
		}
	}
	// The public listing agrees with the replay order.
	for i, id := range s.order {
		if id != want[i] {
			t.Fatalf("listing order = %v, want %v", s.order, want)
		}
	}
}
