// The coordinator side of the fleet: accepts worker connections, shards
// job executions across them under leases, watches heartbeats, and
// re-dispatches the jobs of dead workers. Execution state lives in
// checkpoint logs on the shared filesystem, so a re-dispatched job resumes —
// bit-identically — instead of restarting.
package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"mobilebench/internal/wire"
	"mobilebench/internal/xrand"
)

// CoordinatorConfig configures a Coordinator.
type CoordinatorConfig struct {
	// LeaseTTL is how long a lease survives without a heartbeat before it
	// is revoked and its job re-dispatched (default 10s).
	LeaseTTL time.Duration
	// DispatchBackoffBase is the delay before re-probing for a free
	// worker when the fleet is saturated; it doubles per attempt, is
	// capped at 2s and carries a deterministic ±50% jitter so a thundering
	// herd of waiting jobs decorrelates (default 100ms).
	DispatchBackoffBase time.Duration
	// Seed feeds the deterministic backoff jitter (default 888, the
	// pipeline's seed).
	Seed uint64
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.DispatchBackoffBase <= 0 {
		c.DispatchBackoffBase = 100 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 888
	}
	return c
}

// dispatchBackoffCap bounds the saturation re-probe delay.
const dispatchBackoffCap = 2 * time.Second

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

	// freed is pulsed whenever capacity may have appeared (a worker
	// connected, a lease completed or was revoked), waking saturated
	// Execute calls early instead of leaving them to their full backoff.
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
}

type lease struct {
	id       string
	job      string
	w        *workerConn
	lastBeat time.Time
	outcome  chan leaseOutcome // buffered 1; exactly one send wins
	settled  bool              // guarded by Coordinator.mu
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
		freed:   make(chan struct{}, 1),
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
	w := &workerConn{id: f.Worker, capacity: f.Capacity, conn: conn, stream: stream, active: make(map[string]*lease)}

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
	c.pulseFreed() // fresh capacity: wake saturated dispatchers

	for {
		f, err := stream.Next()
		if err != nil {
			return // connection death revokes every lease via dropWorker
		}
		switch f.Type {
		case TypeHeartbeat:
			c.beat(f.Lease)
		case TypeResult:
			c.settle(f.Lease, leaseOutcome{result: f.Result})
		case TypeFail:
			c.settle(f.Lease, leaseOutcome{err: &RemoteError{Worker: w.id, Job: f.Job, Msg: f.Error}})
		default:
			return // protocol violation: tear the connection down
		}
	}
}

// beat refreshes a lease's heartbeat clock.
func (c *Coordinator) beat(leaseID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l, ok := c.leases[leaseID]; ok {
		l.lastBeat = time.Now()
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
	}
	c.mu.Unlock()
	if ok {
		l.outcome <- out
		c.pulseFreed()
	}
}

// dropWorker unregisters a worker and revokes every lease it held.
func (c *Coordinator) dropWorker(w *workerConn) {
	c.mu.Lock()
	if c.workers[w.id] == w {
		delete(c.workers, w.id)
	}
	ids := make([]string, 0, len(w.active))
	for id := range w.active {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var revoked []*lease
	for _, id := range ids {
		l := w.active[id]
		if !l.settled {
			l.settled = true
			revoked = append(revoked, l)
		}
		delete(c.leases, id)
		delete(w.active, id)
	}
	c.mu.Unlock()
	_ = w.conn.Close()
	for _, l := range revoked {
		l.outcome <- leaseOutcome{revoked: true}
	}
	c.pulseFreed()
}

// monitor watches heartbeats: a lease silent for LeaseTTL means its
// worker is presumed dead even if TCP disagrees (SIGSTOP, a wedged box, a
// partitioned network), so the whole worker is dropped — revoking every
// lease it held and closing its connection, lest deterministic placement
// hand the re-dispatched job straight back to the wedged process. A
// recovered worker re-registers through its reconnect loop.
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
			ids := make([]string, 0, len(c.leases))
			for id := range c.leases {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			var stale []*workerConn
			seen := make(map[*workerConn]bool)
			for _, id := range ids {
				l := c.leases[id]
				if now.Sub(l.lastBeat) > c.cfg.LeaseTTL && l.w != nil && !seen[l.w] {
					seen[l.w] = true
					stale = append(stale, l.w)
				}
			}
			c.mu.Unlock()
			for _, w := range stale {
				c.dropWorker(w)
			}
		}
	}
}

func (c *Coordinator) pulseFreed() {
	select {
	case c.freed <- struct{}{}:
	default:
	}
}

// Execute runs one job on the fleet and returns its result bytes. It
// blocks until a worker finishes the job, re-dispatching on lease
// revocation (worker death) and backing off with capped deterministic
// jitter while every worker is saturated. The checkpoint path rides in
// the dispatch frame, so every (re-)dispatch resumes from whatever the
// previous holder durably finished.
func (c *Coordinator) Execute(ctx context.Context, jobID string, spec json.RawMessage, checkpointPath string) (json.RawMessage, error) {
	if len(spec) > MaxSpecBytes {
		return nil, &SpecTooLargeError{Bytes: len(spec), Max: MaxSpecBytes}
	}
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		l, err := c.tryDispatch(jobID, spec, checkpointPath)
		if err != nil {
			return nil, err
		}
		if l == nil {
			// Saturated (or empty) fleet: back off, waking early if
			// capacity frees up.
			if err := c.waitCapacity(ctx, jobID, attempt); err != nil {
				return nil, err
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
// fleet state). It returns nil with no error when no worker has capacity.
func (c *Coordinator) tryDispatch(jobID string, spec json.RawMessage, checkpointPath string) (*lease, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrCoordinatorClosed
	}
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var best *workerConn
	bestFree := 0
	for _, id := range ids {
		w := c.workers[id]
		if free := w.capacity - len(w.active); free > bestFree {
			best, bestFree = w, free
		}
	}
	if best == nil {
		c.mu.Unlock()
		return nil, nil
	}
	c.leaseSeq++
	l := &lease{
		id:       fmt.Sprintf("L-%06d", c.leaseSeq),
		job:      jobID,
		w:        best,
		lastBeat: time.Now(),
		outcome:  make(chan leaseOutcome, 1),
	}
	c.leases[l.id] = l
	best.active[l.id] = l
	c.mu.Unlock()

	frame := Frame{Type: TypeDispatch, Lease: l.id, Job: jobID, Spec: spec, Checkpoint: checkpointPath}
	if err := best.stream.Send(frame); err != nil {
		// The worker died between selection and write: drop it (revoking
		// this lease among any others) and report "no capacity" so the
		// caller retries against the remaining fleet.
		c.dropWorker(best)
		return nil, nil
	}
	return l, nil
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
	}
	c.mu.Unlock()
	c.pulseFreed()
}

// waitCapacity sleeps the capped-exponential, deterministically jittered
// saturation backoff, returning early when capacity frees up or ctx ends.
func (c *Coordinator) waitCapacity(ctx context.Context, jobID string, attempt int) error {
	// Jitter derived from (seed, job, attempt): saturated dispatchers
	// decorrelate, yet the schedule replays exactly.
	rng := xrand.New(c.cfg.Seed).Split(xrand.HashString(jobID)).Split(uint64(attempt) + 0x5eed)
	t := time.NewTimer(xrand.Backoff(c.cfg.DispatchBackoffBase, dispatchBackoffCap, attempt, rng))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-c.stop:
		return ErrCoordinatorClosed
	case <-c.freed:
		return nil
	case <-t.C:
		return nil
	}
}

// Stats reports the fleet's size and load: connected workers, their total
// capacity, and the leases in flight. The serving layer folds these into
// its readiness and Retry-After answers.
func (c *Coordinator) Stats() (workers, capacity, active int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		workers++
		capacity += w.capacity
		active += len(w.active)
	}
	return workers, capacity, active
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
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	workers := make([]*workerConn, 0, len(ids))
	for _, id := range ids {
		workers = append(workers, c.workers[id])
	}
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
