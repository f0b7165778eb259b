// The coordinator side of the fleet: accepts worker connections, shards
// job executions across them under leases, drops workers that fall silent,
// and re-dispatches the jobs of dead workers. Execution state lives in
// checkpoint logs on the shared filesystem, so a re-dispatched job resumes —
// bit-identically — instead of restarting.
package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net"
	"slices"
	"sync"
	"time"

	"mobilebench/internal/wire"
)

// CoordinatorConfig configures a Coordinator.
type CoordinatorConfig struct {
	// LeaseTTL is how long a worker may send no frame at all before it is
	// dropped, its leases revoked and their jobs re-dispatched (default
	// 10s).
	LeaseTTL time.Duration
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	return c
}

// ErrCoordinatorClosed reports an Execute attempted on a closed
// coordinator.
var ErrCoordinatorClosed = errors.New("dist: coordinator closed")

// RemoteError is a job failure reported by a worker. It is the job's
// failure, not the fleet's: Execute returns it instead of re-dispatching,
// because a deterministic job fails identically everywhere.
type RemoteError struct {
	Worker string
	Job    string
	Msg    string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("dist: worker %s failed job %s: %s", e.Worker, e.Job, e.Msg)
}

// Coordinator shards job executions across connected workers.
type Coordinator struct {
	cfg CoordinatorConfig

	mu       sync.Mutex
	workers  map[string]*workerConn
	leases   map[string]*lease
	leaseSeq int
	closed   bool

	// freed is closed and replaced (under mu) whenever capacity may have
	// appeared: a worker connected, a lease completed, was revoked or was
	// abandoned. A saturated Execute waits on the channel current when it
	// found no free slot, so no change after that look is ever missed.
	freed chan struct{}
	stop  chan struct{}
	done  sync.WaitGroup

	ln net.Listener
}

type workerConn struct {
	id       string
	capacity int
	conn     net.Conn
	stream   *wire.Stream[Frame]
	active   map[string]*lease
	lastSeen time.Time // when its last frame arrived; guarded by Coordinator.mu
	// welcomed is set once the welcome frame is written; placement skips
	// a worker until then, so its first frame after hello is the welcome.
	// Guarded by Coordinator.mu.
	welcomed bool
}

type lease struct {
	id      string
	job     string
	w       *workerConn
	outcome chan leaseOutcome // buffered 1; exactly one send wins
	settled bool              // guarded by Coordinator.mu
}

type leaseOutcome struct {
	result  json.RawMessage
	err     error
	revoked bool
}

// NewCoordinator builds a coordinator and starts its lease monitor.
// Callers must Close it.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	c := &Coordinator{
		cfg:     cfg.withDefaults(),
		workers: make(map[string]*workerConn),
		leases:  make(map[string]*lease),
		freed:   make(chan struct{}),
		stop:    make(chan struct{}),
	}
	c.done.Add(1)
	go c.monitor()
	return c
}

// Serve accepts worker connections on ln until Close. It owns ln.
func (c *Coordinator) Serve(ln net.Listener) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		_ = ln.Close()
		return
	}
	c.ln = ln
	c.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed (Close) or fatally broken
		}
		c.done.Add(1)
		go func() {
			defer c.done.Done()
			c.handleConn(conn)
		}()
	}
}

// handleConn runs one worker connection: handshake, then the frame loop.
func (c *Coordinator) handleConn(conn net.Conn) {
	defer conn.Close()
	stream := wire.NewStream[Frame](conn, conn, MaxFrameBytes)
	f, err := stream.Next()
	if err != nil || f.Type != TypeHello {
		_ = stream.Send(Frame{Type: TypeReject, Error: "expected a hello frame"})
		return
	}
	if f.Proto != ProtoVersion {
		_ = stream.Send(Frame{Type: TypeReject,
			Error: fmt.Sprintf("protocol version %d not supported (want %d)", f.Proto, ProtoVersion)})
		return
	}
	w := &workerConn{id: f.Worker, capacity: f.Capacity, conn: conn, stream: stream,
		active: make(map[string]*lease), lastSeen: time.Now()}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	if _, dup := c.workers[w.id]; dup {
		c.mu.Unlock()
		_ = stream.Send(Frame{Type: TypeReject, Error: fmt.Sprintf("worker id %q already registered", w.id)})
		return
	}
	c.workers[w.id] = w
	c.mu.Unlock()
	defer c.dropWorker(w)

	if err := stream.Send(Frame{Type: TypeWelcome, Proto: ProtoVersion}); err != nil {
		return
	}
	c.mu.Lock()
	w.welcomed = true
	c.capacityChanged() // fresh capacity: wake saturated dispatchers
	c.mu.Unlock()

	for {
		f, err := stream.Next()
		if err != nil {
			return // connection death revokes every lease via dropWorker
		}
		c.mu.Lock()
		w.lastSeen = time.Now()
		c.mu.Unlock()
		switch f.Type {
		case TypeHeartbeat: // its arrival was the point
		case TypeResult:
			c.settle(f.Lease, leaseOutcome{result: f.Result})
		case TypeFail:
			c.settle(f.Lease, leaseOutcome{err: &RemoteError{Worker: w.id, Job: f.Job, Msg: f.Error}})
		default:
			return // protocol violation: tear the connection down
		}
	}
}

// settle completes a lease with its terminal outcome. Late frames for a
// lease already revoked (or unknown) are dropped: the job has moved on.
func (c *Coordinator) settle(leaseID string, out leaseOutcome) {
	c.mu.Lock()
	l, ok := c.leases[leaseID]
	if ok && !l.settled {
		l.settled = true
		delete(c.leases, leaseID)
		if l.w != nil {
			delete(l.w.active, leaseID)
		}
		c.capacityChanged()
	}
	c.mu.Unlock()
	if ok {
		l.outcome <- out
	}
}

// dropWorker unregisters a worker and revokes every lease it held.
func (c *Coordinator) dropWorker(w *workerConn) {
	c.mu.Lock()
	if c.workers[w.id] == w {
		delete(c.workers, w.id)
	}
	var revoked []*lease
	for _, id := range slices.Sorted(maps.Keys(w.active)) {
		l := w.active[id]
		if !l.settled {
			l.settled = true
			revoked = append(revoked, l)
		}
		delete(c.leases, id)
		delete(w.active, id)
	}
	c.capacityChanged()
	c.mu.Unlock()
	_ = w.conn.Close()
	for _, l := range revoked {
		l.outcome <- leaseOutcome{revoked: true}
	}
}

// monitor watches each worker's liveness clock: a worker silent for
// LeaseTTL is presumed dead even if TCP disagrees (SIGSTOP, a wedged box,
// a partitioned network), so it is dropped — revoking every lease it held
// and closing its connection, lest deterministic placement hand a job to
// the wedged process. An idle worker is held to the same clock, so the
// next job never waits a TTL on it. A recovered worker re-registers
// through its reconnect loop.
func (c *Coordinator) monitor() {
	defer c.done.Done()
	tick := time.NewTicker(c.cfg.LeaseTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-tick.C:
			c.mu.Lock()
			var stale []*workerConn
			for _, w := range c.sortedWorkers() {
				if now.Sub(w.lastSeen) > c.cfg.LeaseTTL {
					stale = append(stale, w)
				}
			}
			c.mu.Unlock()
			for _, w := range stale {
				c.dropWorker(w)
			}
		}
	}
}

// sortedWorkers returns the connected workers in worker-id order, the one
// order placement, liveness checks and shutdown walk them in. The caller
// holds c.mu.
func (c *Coordinator) sortedWorkers() []*workerConn {
	ws := make([]*workerConn, 0, len(c.workers))
	for _, id := range slices.Sorted(maps.Keys(c.workers)) {
		ws = append(ws, c.workers[id])
	}
	return ws
}

// capacityChanged wakes every Execute waiting for a free slot. The caller
// holds c.mu.
func (c *Coordinator) capacityChanged() {
	close(c.freed)
	c.freed = make(chan struct{})
}

// Execute runs one job on the fleet and returns its result bytes. It
// blocks until a worker finishes the job, re-dispatching on lease
// revocation (worker death) and waiting for the next capacity change
// while every worker is saturated. The checkpoint path rides in
// the dispatch frame, so every (re-)dispatch resumes from whatever the
// previous holder durably finished.
func (c *Coordinator) Execute(ctx context.Context, jobID string, spec json.RawMessage, checkpointPath string) (json.RawMessage, error) {
	if len(spec) > MaxSpecBytes {
		return nil, &SpecTooLargeError{Bytes: len(spec), Max: MaxSpecBytes}
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		l, wait, err := c.tryDispatch(jobID, spec, checkpointPath)
		if err != nil {
			return nil, err
		}
		if l == nil {
			// Saturated (or empty) fleet: sleep until capacity changes.
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-c.stop:
				return nil, ErrCoordinatorClosed
			case <-wait:
			}
			continue
		}
		select {
		case out := <-l.outcome:
			if out.revoked {
				continue // the worker died; dispatch to another
			}
			return out.result, out.err
		case <-ctx.Done():
			c.abandon(l)
			return nil, ctx.Err()
		}
	}
}

// tryDispatch leases the job to the worker with the most free slots
// (worker id breaking ties, so placement is deterministic for a given
// fleet state). When no worker has capacity it returns a nil lease and
// the channel the next capacity change closes.
func (c *Coordinator) tryDispatch(jobID string, spec json.RawMessage, checkpointPath string) (*lease, <-chan struct{}, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, nil, ErrCoordinatorClosed
	}
	var best *workerConn
	bestFree := 0
	for _, w := range c.sortedWorkers() {
		if free := w.capacity - len(w.active); w.welcomed && free > bestFree {
			best, bestFree = w, free
		}
	}
	wait := c.freed
	if best == nil {
		c.mu.Unlock()
		return nil, wait, nil
	}
	c.leaseSeq++
	l := &lease{
		id:      fmt.Sprintf("L-%06d", c.leaseSeq),
		job:     jobID,
		w:       best,
		outcome: make(chan leaseOutcome, 1),
	}
	c.leases[l.id] = l
	best.active[l.id] = l
	c.mu.Unlock()

	frame := Frame{Type: TypeDispatch, Lease: l.id, Job: jobID, Spec: spec, Checkpoint: checkpointPath}
	if err := best.stream.Send(frame); err != nil {
		// The worker died between selection and write: drop it (revoking
		// this lease among any others, which closes wait) so the caller
		// retries at once against the remaining fleet.
		c.dropWorker(best)
		return nil, wait, nil
	}
	return l, nil, nil
}

// abandon forgets a lease whose observer gave up (context expiry). A late
// result frame for it is dropped by settle.
func (c *Coordinator) abandon(l *lease) {
	c.mu.Lock()
	if !l.settled {
		l.settled = true
		delete(c.leases, l.id)
		if l.w != nil {
			delete(l.w.active, l.id)
		}
		c.capacityChanged()
	}
	c.mu.Unlock()
}

// Workers reports how many workers are connected; the serving layer is
// ready once it is positive.
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// Close shuts the coordinator down: the listener stops accepting, every
// worker connection is torn down, in-flight Executes fail with
// ErrCoordinatorClosed or a revocation, and the monitor exits.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	ln := c.ln
	workers := c.sortedWorkers()
	c.mu.Unlock()

	close(c.stop)
	if ln != nil {
		_ = ln.Close()
	}
	for _, w := range workers {
		c.dropWorker(w)
	}
	c.done.Wait()
}
