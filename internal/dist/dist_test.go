// Fleet integration tests: real TCP connections between an in-process
// coordinator and in-process workers, including the chaos path — a worker
// killed mid-job loses its lease, the job re-dispatches, and the resumed
// result is byte-identical to an undisturbed execution.
package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"mobilebench/internal/checkpoint"
	"mobilebench/internal/dist"
	"mobilebench/internal/server"
	"mobilebench/internal/workload"
)

// startCoordinator builds a coordinator serving on a loopback listener.
func startCoordinator(t *testing.T, cfg dist.CoordinatorConfig) (*dist.Coordinator, string) {
	t.Helper()
	c := dist.NewCoordinator(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.Serve(ln)
	t.Cleanup(c.Close)
	return c, ln.Addr().String()
}

// startWorker runs a worker against addr until the test ends.
func startWorker(t *testing.T, cfg dist.WorkerConfig, exec dist.ExecFunc, addr string) *dist.Worker {
	t.Helper()
	w, err := dist.NewWorker(cfg, exec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() { _ = w.Run(ctx, addr) }()
	return w
}

// waitWorkers blocks until the fleet reports n connected workers.
func waitWorkers(t *testing.T, c *dist.Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if w := c.Workers(); w >= n {
			return
		}
		if time.Now().After(deadline) {
			w := c.Workers()
			t.Fatalf("fleet stuck at %d workers, want %d", w, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestExecuteRoundtrip(t *testing.T) {
	c, addr := startCoordinator(t, dist.CoordinatorConfig{})
	echo := func(_ context.Context, jobID string, spec json.RawMessage, ckpt string) (json.RawMessage, error) {
		return json.RawMessage(fmt.Sprintf(`{"job":%q,"spec":%s,"ckpt":%q}`, jobID, spec, ckpt)), nil
	}
	startWorker(t, dist.WorkerConfig{ID: "w1"}, echo, addr)
	waitWorkers(t, c, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := c.Execute(ctx, "job-000007", json.RawMessage(`{"kind":"subset"}`), "/state/job-000007.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	want := `{"job":"job-000007","spec":{"kind":"subset"},"ckpt":"/state/job-000007.ckpt"}`
	if string(got) != want {
		t.Fatalf("Execute = %s, want %s", got, want)
	}
}

func TestExecuteShardsAcrossWorkers(t *testing.T) {
	c, addr := startCoordinator(t, dist.CoordinatorConfig{})
	var mu sync.Mutex
	ran := map[string][]string{} // worker → jobs
	gate := make(chan struct{})
	exec := func(id string) dist.ExecFunc {
		return func(_ context.Context, jobID string, _ json.RawMessage, _ string) (json.RawMessage, error) {
			mu.Lock()
			ran[id] = append(ran[id], jobID)
			mu.Unlock()
			<-gate // hold the slot so jobs must spread
			return json.RawMessage(`{}`), nil
		}
	}
	startWorker(t, dist.WorkerConfig{ID: "w1"}, exec("w1"), addr)
	startWorker(t, dist.WorkerConfig{ID: "w2"}, exec("w2"), addr)
	waitWorkers(t, c, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Execute(ctx, fmt.Sprintf("job-%06d", i), json.RawMessage(`{}`), ""); err != nil {
				t.Errorf("Execute %d: %v", i, err)
			}
		}(i)
	}
	// Both workers must end up busy before the gate opens.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		busy := len(ran)
		mu.Unlock()
		if busy == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never spread: %v", ran)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if len(ran["w1"]) != 1 || len(ran["w2"]) != 1 {
		t.Fatalf("placement = %v, want one job per worker", ran)
	}
}

func TestSaturatedFleetBackpressure(t *testing.T) {
	c, addr := startCoordinator(t, dist.CoordinatorConfig{})
	gate := make(chan struct{})
	exec := func(_ context.Context, _ string, _ json.RawMessage, _ string) (json.RawMessage, error) {
		<-gate
		return json.RawMessage(`{}`), nil
	}
	startWorker(t, dist.WorkerConfig{ID: "w1", Capacity: 1}, exec, addr)
	waitWorkers(t, c, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := c.Execute(ctx, fmt.Sprintf("job-%06d", i), json.RawMessage(`{}`), "")
			results <- err
		}(i)
	}
	// With capacity 1, at most one lease may be active at once; the other
	// Execute must wait in backoff, not over-dispatch.
	time.Sleep(100 * time.Millisecond)
	if active := dist.ActiveLeases(c); active > 1 {
		t.Fatalf("active leases = %d, want <= 1 on a capacity-1 fleet", active)
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSaturatedFleetWakesEveryWaiter: two leases that settle together
// must wake both Execute calls waiting for a slot, not one of them with the
// other left asleep while a slot stands free.
func TestSaturatedFleetWakesEveryWaiter(t *testing.T) {
	c, addr := startCoordinator(t, dist.CoordinatorConfig{})
	gate := make(chan struct{})
	started := make(chan string, 4)
	exec := func(_ context.Context, jobID string, _ json.RawMessage, _ string) (json.RawMessage, error) {
		started <- jobID
		if jobID == "gated-0" || jobID == "gated-1" {
			<-gate
		}
		return json.RawMessage(`{}`), nil
	}
	startWorker(t, dist.WorkerConfig{ID: "w1", Capacity: 2}, exec, addr)
	waitWorkers(t, c, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	results := make(chan error, 4)
	execute := func(jobID string) {
		_, err := c.Execute(ctx, jobID, json.RawMessage(`{}`), "")
		results <- err
	}
	go execute("gated-0")
	go execute("gated-1")
	for i := 0; i < 2; i++ {
		<-started
	}
	go execute("waiter-0")
	go execute("waiter-1")
	// Let both waiters find the fleet full and go to sleep.
	time.Sleep(time.Second)
	if active := dist.ActiveLeases(c); active != 2 {
		t.Fatalf("active leases = %d, want 2 on a capacity-2 fleet", active)
	}

	released := time.Now()
	close(gate)
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(500*time.Millisecond - time.Since(released)):
			t.Fatalf("%d of 2 waiters dispatched within 500ms of both slots freeing", i)
		}
	}
	for i := 0; i < 4; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
}

func TestRemoteFailureIsNotRedispatched(t *testing.T) {
	c, addr := startCoordinator(t, dist.CoordinatorConfig{})
	var mu sync.Mutex
	attempts := 0
	exec := func(_ context.Context, _ string, _ json.RawMessage, _ string) (json.RawMessage, error) {
		mu.Lock()
		attempts++
		mu.Unlock()
		return nil, fmt.Errorf("spec rejected: no such unit")
	}
	startWorker(t, dist.WorkerConfig{ID: "w1"}, exec, addr)
	waitWorkers(t, c, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := c.Execute(ctx, "job-000000", json.RawMessage(`{}`), "")
	var remote *dist.RemoteError
	if err == nil || !errors.As(err, &remote) {
		t.Fatalf("err = %v, want a *dist.RemoteError", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if attempts != 1 {
		t.Fatalf("deterministic failure executed %d times, want 1", attempts)
	}
}

func TestProtoVersionSkewRejected(t *testing.T) {
	_, addr := startCoordinator(t, dist.CoordinatorConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, `{"type":"hello","proto":99,"worker":"wX","capacity":1}`+"\n")
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	f, err := dist.ParseFrame(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != dist.TypeReject {
		t.Fatalf("version-skewed hello answered with %q, want reject", f.Type)
	}
}

func TestDuplicateWorkerIDRejected(t *testing.T) {
	c, addr := startCoordinator(t, dist.CoordinatorConfig{})
	exec := func(_ context.Context, _ string, _ json.RawMessage, _ string) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	}
	startWorker(t, dist.WorkerConfig{ID: "twin"}, exec, addr)
	waitWorkers(t, c, 1)

	w2, err := dist.NewWorker(dist.WorkerConfig{ID: "twin"}, exec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = w2.Run(ctx, addr)
	var rej *dist.RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("duplicate id Run = %v, want *dist.RejectedError", err)
	}
}

// shortSpec is the fastest real characterize spec: one unit, one run.
func shortSpec(t *testing.T) server.Spec {
	t.Helper()
	units := workload.AnalysisUnits()
	sort.Slice(units, func(i, j int) bool { return units[i].Duration() < units[j].Duration() })
	return server.Spec{Kind: "characterize", Units: []string{units[0].Name, units[1].Name}, Runs: 1, Workers: 1}
}

// TestWorkerDeathRedispatchBitIdentical is the chaos acceptance test: a
// worker dies (abrupt connection loss, no fail frame — the kill -9
// surface) after durably checkpointing part of a fault-injected job; the
// coordinator revokes its lease, re-dispatches to the surviving worker,
// and the resumed result is byte-identical to an undisturbed execution of
// the same spec.
func TestWorkerDeathRedispatchBitIdentical(t *testing.T) {
	stateDir := t.TempDir()
	spec := shortSpec(t)
	spec.Inject = "nan=0.3,seed=11" // fault injection on, self-healing exercised
	rawSpec, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(stateDir, "job-chaos.ckpt")

	c, addr := startCoordinator(t, dist.CoordinatorConfig{LeaseTTL: 2 * time.Second})
	realExec := func(ctx context.Context, _ string, raw json.RawMessage, ckptPath string) (json.RawMessage, error) {
		var sp server.Spec
		if err := json.Unmarshal(raw, &sp); err != nil {
			return nil, err
		}
		return server.ExecuteSpec(ctx, sp, ckptPath)
	}
	// w1 sorts first, so the deterministic placement sends the job there.
	w1 := startWorker(t, dist.WorkerConfig{ID: "w1", Heartbeat: 100 * time.Millisecond}, realExec, addr)
	startWorker(t, dist.WorkerConfig{ID: "w2", Heartbeat: 100 * time.Millisecond}, realExec, addr)
	waitWorkers(t, c, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	done := make(chan struct{})
	var result json.RawMessage
	var execErr error
	go func() {
		defer close(done)
		result, execErr = c.Execute(ctx, "job-chaos", rawSpec, ckpt)
	}()

	// Kill w1 the moment the first (unit, run) is durably checkpointed:
	// mid-job by construction, with real progress to resume from.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if snap, err := checkpoint.Load(ckpt, 0); err == nil && len(snap.Records) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never checkpointed a pair")
		}
		time.Sleep(10 * time.Millisecond)
	}
	w1.Close() // kill -9: connection drops, no fail frame, exec cancelled

	<-done
	if execErr != nil {
		t.Fatalf("re-dispatched execution failed: %v", execErr)
	}

	// Undisturbed baseline: same spec, fresh checkpoint, direct execution.
	baseline, err := server.ExecuteSpec(context.Background(), spec, filepath.Join(stateDir, "baseline.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(result, baseline) {
		t.Fatalf("re-dispatched result differs from undisturbed baseline:\n%s\nvs\n%s", result, baseline)
	}

	// The survivor is the only worker left.
	if w := c.Workers(); w != 1 {
		t.Fatalf("fleet has %d workers after the kill, want 1", w)
	}
}

// TestGracefulWorkerStopRedispatches covers the SIGTERM surface: a
// worker whose Run context is cancelled mid-job must NOT report the
// cancellation as a fail frame (that would settle the job as a permanent
// remote failure) — the lease is revoked through connection teardown and
// the job completes on another worker, exactly like a kill -9.
func TestGracefulWorkerStopRedispatches(t *testing.T) {
	c, addr := startCoordinator(t, dist.CoordinatorConfig{})
	started := make(chan struct{}, 1)
	blocking := func(ctx context.Context, _ string, _ json.RawMessage, _ string) (json.RawMessage, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	w1, err := dist.NewWorker(dist.WorkerConfig{ID: "w1", Heartbeat: 50 * time.Millisecond}, blocking)
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	go func() { _ = w1.Run(ctx1, addr) }()
	waitWorkers(t, c, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan struct{})
	var result json.RawMessage
	var execErr error
	go func() {
		defer close(done)
		result, execErr = c.Execute(ctx, "job-000000", json.RawMessage(`{}`), "")
	}()
	<-started
	cancel1() // graceful stop: the exec sees context.Canceled mid-job

	// The survivor inherits the job after the revocation.
	healthy := func(_ context.Context, _ string, _ json.RawMessage, _ string) (json.RawMessage, error) {
		return json.RawMessage(`{"ok":true}`), nil
	}
	startWorker(t, dist.WorkerConfig{ID: "w2", Heartbeat: 50 * time.Millisecond}, healthy, addr)

	<-done
	if execErr != nil {
		t.Fatalf("gracefully stopped worker failed the job permanently: %v", execErr)
	}
	if string(result) != `{"ok":true}` {
		t.Fatalf("result = %s, want the survivor's", result)
	}
}

// TestIdleWorkerStopsPromptly: cancelling Run's context must unblock a
// worker idling in its read loop — a SIGTERM'd idle worker exits instead
// of hanging until SIGKILL.
func TestIdleWorkerStopsPromptly(t *testing.T) {
	c, addr := startCoordinator(t, dist.CoordinatorConfig{})
	exec := func(_ context.Context, _ string, _ json.RawMessage, _ string) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	}
	w, err := dist.NewWorker(dist.WorkerConfig{ID: "w1"}, exec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx, addr) }()
	waitWorkers(t, c, 1)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("idle worker did not stop on context cancellation")
	}
}

// TestLeaseTTLRevocation covers the heartbeat half of death detection: a
// worker that stops heartbeating without dropping TCP (SIGSTOP, wedged
// box) loses the lease after the TTL and the job completes elsewhere.
func TestLeaseTTLRevocation(t *testing.T) {
	c, addr := startCoordinator(t, dist.CoordinatorConfig{LeaseTTL: 300 * time.Millisecond})
	var mu sync.Mutex
	runs := []string{}
	hang := make(chan struct{})
	// wSilent: long heartbeat period (beyond TTL) and a hanging exec —
	// the lease must be revoked by the monitor, not by connection death.
	silent := func(_ context.Context, _ string, _ json.RawMessage, _ string) (json.RawMessage, error) {
		mu.Lock()
		runs = append(runs, "silent")
		mu.Unlock()
		<-hang
		return json.RawMessage(`{}`), nil
	}
	healthy := func(_ context.Context, _ string, _ json.RawMessage, _ string) (json.RawMessage, error) {
		mu.Lock()
		runs = append(runs, "healthy")
		mu.Unlock()
		return json.RawMessage(`{"ok":true}`), nil
	}
	startWorker(t, dist.WorkerConfig{ID: "a-silent", Heartbeat: time.Hour}, silent, addr)
	waitWorkers(t, c, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan struct{})
	var result json.RawMessage
	var execErr error
	go func() {
		defer close(done)
		result, execErr = c.Execute(ctx, "job-000000", json.RawMessage(`{}`), "")
	}()
	// Let the silent worker take the lease, then bring up the healthy one
	// to inherit the job after revocation.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(runs)
		mu.Unlock()
		if n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("silent worker never started the job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	startWorker(t, dist.WorkerConfig{ID: "b-healthy", Heartbeat: 50 * time.Millisecond}, healthy, addr)

	<-done
	close(hang)
	if execErr != nil {
		t.Fatal(execErr)
	}
	if string(result) != `{"ok":true}` {
		t.Fatalf("result = %s, want the healthy worker's", result)
	}
	mu.Lock()
	defer mu.Unlock()
	if runs[0] != "silent" || runs[len(runs)-1] != "healthy" {
		t.Fatalf("runs = %v, want silent first, healthy last", runs)
	}
}

// TestSilentIdleWorkerDropped: liveness is per worker, not per lease. A
// worker that handshakes and then goes silent while holding no lease
// (SIGSTOP between jobs) must be dropped within two TTLs — its connection
// closed — so placement never hands the next job to a dead process.
func TestSilentIdleWorkerDropped(t *testing.T) {
	const ttl = 300 * time.Millisecond
	c, addr := startCoordinator(t, dist.CoordinatorConfig{LeaseTTL: ttl})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello, err := dist.EncodeFrame(dist.Frame{Type: dist.TypeHello, Proto: dist.ProtoVersion, Worker: "idle", Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("reading welcome: %v", err)
	}
	if f, err := dist.ParseFrame(buf[:n]); err != nil || f.Type != dist.TypeWelcome {
		t.Fatalf("hello answered with %q (%v), want welcome", buf[:n], err)
	}
	registered := time.Now()
	if w := c.Workers(); w != 1 {
		t.Fatalf("fleet has %d workers after the handshake, want 1", w)
	}

	// Silence from here on: the coordinator must close the connection.
	if err := conn.SetReadDeadline(registered.Add(2 * ttl)); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(buf); err == nil {
		t.Fatalf("coordinator sent %q to a silent idle worker, want the connection closed", buf[:n])
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("silent idle worker still connected %v after its handshake (TTL %v)", 2*ttl, ttl)
	}
	if w := c.Workers(); w != 0 {
		t.Fatalf("fleet has %d workers after the silence, want 0", w)
	}
}

// TestWedgedWorkerDoesNotStallCoordinator is the PR-8 stall class on the
// fleet's write path: a worker that handshakes and then stops reading
// wedges dispatch writes to its connection once the socket buffer fills.
// Those writes hold only that connection's write mutex — never the
// coordinator's — so Workers stays responsive and jobs keep flowing to
// healthy workers while the wedge is live.
func TestWedgedWorkerDoesNotStallCoordinator(t *testing.T) {
	c, addr := startCoordinator(t, dist.CoordinatorConfig{})

	// A raw wedged worker: hello, welcome, then silence — it never reads
	// another byte, so dispatch frames pile up in the socket buffers.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello, err := dist.EncodeFrame(dist.Frame{Type: dist.TypeHello, Proto: dist.ProtoVersion, Worker: "a-wedge", Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	welcome := make([]byte, 1)
	for { // consume exactly the welcome line, nothing after it
		if _, err := conn.Read(welcome); err != nil {
			t.Fatalf("reading welcome: %v", err)
		}
		if welcome[0] == '\n' {
			break
		}
	}
	waitWorkers(t, c, 1)

	// Two dispatches of a spec far beyond the loopback socket buffering
	// both target a-wedge (most free slots, lowest id); at least one
	// writer wedges mid-Write holding a-wedge's write mutex.
	bigSpec := json.RawMessage(fmt.Sprintf(`{"pad":%q}`, bytes.Repeat([]byte("x"), 6<<20)))
	wedgeCtx, cancelWedged := context.WithCancel(context.Background())
	defer cancelWedged()
	var wedged sync.WaitGroup
	for i := 0; i < 2; i++ {
		wedged.Add(1)
		go func(i int) {
			defer wedged.Done()
			_, _ = c.Execute(wedgeCtx, fmt.Sprintf("job-wedge-%d", i), bigSpec, "")
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if active := dist.ActiveLeases(c); active == 2 {
			break
		}
		if time.Now().After(deadline) {
			active := dist.ActiveLeases(c)
			t.Fatalf("wedged dispatches never leased: active = %d, want 2", active)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The coordinator's shared state must stay reachable while the wedge
	// is live...
	statsDone := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			c.Workers()
		}
		close(statsDone)
	}()
	select {
	case <-statsDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Workers wedged behind the stuck dispatch write")
	}

	// ...and a healthy worker must still receive and finish jobs.
	echo := func(_ context.Context, jobID string, _ json.RawMessage, _ string) (json.RawMessage, error) {
		return json.RawMessage(`{"ok":true}`), nil
	}
	startWorker(t, dist.WorkerConfig{ID: "b-healthy"}, echo, addr)
	waitWorkers(t, c, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := c.Execute(ctx, "job-healthy", json.RawMessage(`{}`), "")
	if err != nil {
		t.Fatalf("Execute on the healthy worker while a peer is wedged: %v", err)
	}
	if string(got) != `{"ok":true}` {
		t.Fatalf("result = %s", got)
	}

	// Unwedge: closing the connection fails the stuck writes, the wedge is
	// dropped and its leases revoke.
	cancelWedged()
	_ = conn.Close()
	wedged.Wait()
}

// TestExecuteRefusesOversizedSpec pins the dispatch bound: a spec too
// large for one protocol frame fails up front with the typed error, before
// any worker sees a dispatch — not as a mid-flight protocol teardown.
func TestExecuteRefusesOversizedSpec(t *testing.T) {
	c, _ := startCoordinator(t, dist.CoordinatorConfig{})
	huge := json.RawMessage(bytes.Repeat([]byte("x"), dist.MaxSpecBytes+1))
	_, err := c.Execute(context.Background(), "job-huge", huge, "")
	var tooLarge *dist.SpecTooLargeError
	if !errors.As(err, &tooLarge) {
		t.Fatalf("Execute(oversized spec) = %v, want *SpecTooLargeError", err)
	}
	if tooLarge.Bytes != len(huge) || tooLarge.Max != dist.MaxSpecBytes {
		t.Fatalf("error = %+v", tooLarge)
	}
}
