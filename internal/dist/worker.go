// The worker side of the fleet: dial the coordinator, shake hands, then
// heartbeat for as long as the session lives while executing dispatched
// jobs and reporting their results. Workers are stateless between jobs:
// every durable artifact (checkpoints, job records) lives on the shared
// filesystem, so any worker can pick up any job, including one a dead peer
// left behind.
package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"mobilebench/internal/wire"
)

// ExecFunc executes one dispatched job: the opaque spec document, with
// collection state checkpointed at checkpointPath. The returned bytes are
// the job's result document.
type ExecFunc func(ctx context.Context, jobID string, spec json.RawMessage, checkpointPath string) (json.RawMessage, error)

// WorkerConfig configures a Worker.
type WorkerConfig struct {
	// ID names the worker to the coordinator. Required, unique per fleet.
	ID string
	// Capacity is how many jobs run concurrently (default 1: collections
	// already parallelize internally).
	Capacity int
	// Heartbeat is the session heartbeat period (default 1s). It must
	// stay well under the coordinator's LeaseTTL.
	Heartbeat time.Duration
}

// dialRetry is the pause between reconnect attempts when the coordinator
// is unreachable.
const dialRetry = 500 * time.Millisecond

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.Capacity <= 0 {
		c.Capacity = 1
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = time.Second
	}
	return c
}

// RejectedError reports a handshake the coordinator refused (version
// skew, duplicate worker id). It is permanent: reconnecting with the same
// identity would be refused again.
type RejectedError struct {
	Reason string
}

// Error implements error.
func (e *RejectedError) Error() string { return "dist: coordinator rejected worker: " + e.Reason }

// Worker executes jobs dispatched by a coordinator.
type Worker struct {
	cfg  WorkerConfig
	exec ExecFunc

	mu   sync.Mutex
	conn net.Conn
	stop context.CancelFunc
}

// NewWorker builds a worker around its executor.
func NewWorker(cfg WorkerConfig, exec ExecFunc) (*Worker, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("dist: WorkerConfig.ID is required")
	}
	if exec == nil {
		return nil, fmt.Errorf("dist: an ExecFunc is required")
	}
	return &Worker{cfg: cfg.withDefaults(), exec: exec}, nil
}

// Run connects to the coordinator at addr and serves dispatches until ctx
// ends or the coordinator rejects the handshake. Connection loss cancels
// the jobs riding on it (their leases are already being revoked
// coordinator-side) and reconnects; interrupted collections resume from
// their checkpoints when re-dispatched.
func (w *Worker) Run(ctx context.Context, addr string) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w.mu.Lock()
	w.stop = cancel
	w.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := w.session(ctx, addr)
		var rej *RejectedError
		if errors.As(err, &rej) {
			return err
		}
		if err := sleepCtx(ctx, dialRetry); err != nil {
			return err
		}
	}
}

// Close abruptly severs the worker: the connection drops and every
// running job is cancelled, with no fail frames sent — exactly the
// failure surface a kill -9 presents to the coordinator. Tests use it to
// chaos-check re-dispatch; production deaths don't get to call anything.
func (w *Worker) Close() {
	w.mu.Lock()
	conn, stop := w.conn, w.stop
	w.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	if stop != nil {
		stop()
	}
}

// session runs one connection lifetime.
func (w *Worker) session(ctx context.Context, addr string) error {
	d := net.Dialer{}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	w.mu.Lock()
	w.conn = conn
	w.mu.Unlock()

	// The session context cancels every job the moment the connection
	// dies: their leases die with it.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The read loop blocks on a live, idle connection, and nothing else
	// would unblock it when ctx ends — a gracefully stopped idle worker
	// must not hang until SIGKILL. Closing the connection from a watcher
	// does; sctx also ends when session returns, so the watcher never
	// outlives the connection it guards.
	go func() {
		<-sctx.Done()
		_ = conn.Close()
	}()

	// One stream per session serializes hello, heartbeat and result frames
	// from the job goroutines.
	stream := wire.NewStream[Frame](conn, conn, MaxFrameBytes)
	if err := stream.Send(Frame{
		Type: TypeHello, Proto: ProtoVersion, Worker: w.cfg.ID, Capacity: w.cfg.Capacity,
	}); err != nil {
		return err
	}
	f, err := stream.Next()
	if err != nil {
		return err
	}
	switch f.Type {
	case TypeWelcome:
	case TypeReject:
		return &RejectedError{Reason: f.Error}
	default:
		return &ProtoError{Reason: fmt.Sprintf("handshake answered with %q, want welcome or reject", f.Type)}
	}

	// One heartbeat clock per session, on its own goroutine so a
	// compute-bound collection still proves the process is alive; a job
	// that hangs beyond its deadline is the deadline's problem, not the
	// session's.
	go func() {
		tick := time.NewTicker(w.cfg.Heartbeat)
		defer tick.Stop()
		for {
			select {
			case <-sctx.Done():
				return
			case <-tick.C:
				if stream.Send(Frame{Type: TypeHeartbeat}) != nil {
					return
				}
			}
		}
	}()

	var jobs sync.WaitGroup
	defer func() {
		// Teardown cancels the jobs riding on this connection before
		// waiting for them: their leases are already dead coordinator-side,
		// so finishing the compute would only duplicate work some other
		// worker is re-running.
		cancel()
		jobs.Wait()
	}()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		f, err := stream.Next()
		if err != nil {
			return err
		}
		if f.Type != TypeDispatch {
			return &ProtoError{Reason: fmt.Sprintf("unexpected %q frame from coordinator", f.Type)}
		}
		jobs.Add(1)
		go func(f Frame) {
			defer jobs.Done()
			w.runLease(sctx, stream, f)
		}(f)
	}
}

// runLease executes one dispatched job and reports how it settled.
func (w *Worker) runLease(ctx context.Context, stream *wire.Stream[Frame], f Frame) {
	result, err := w.exec(ctx, f.Job, f.Spec, f.Checkpoint)
	if err != nil {
		// A cancellation that arrived through the session context is the
		// worker stopping (SIGTERM) or the connection dying — not the job
		// failing. A fail frame here would settle the job as a permanent
		// remote failure; staying silent instead lets connection teardown
		// revoke the lease, so the job re-dispatches and resumes from its
		// checkpoint exactly as a kill -9 would.
		if ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			return
		}
		_ = stream.Send(Frame{Type: TypeFail, Lease: f.Lease, Job: f.Job, Error: err.Error()})
		return
	}
	_ = stream.Send(Frame{Type: TypeResult, Lease: f.Lease, Job: f.Job, Result: result})
}

// sleepCtx pauses for d, aborting early when ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
