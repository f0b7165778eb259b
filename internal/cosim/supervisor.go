// The supervision envelope around the external timing process: spawn,
// version-checked handshake with a deadline, per-batch query deadlines,
// crash detection on pipe EOF, hang detection via read timeouts, capped
// deterministically-jittered restart backoff, and a circuit breaker that —
// after MaxStrikes failed exchanges — stops restarting and answers every
// further query with the in-process analytic models. Because the protocol
// threads all model state through the queries, a restarted child resumes
// mid-run with zero warm-up, and (for an exact child) the fallback computes
// the very same bytes, so every failure path converges to the same dataset.
package cosim

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"sync"
	"time"

	"mobilebench/internal/soc"
	"mobilebench/internal/wire"
	"mobilebench/internal/xrand"
)

// Supervision defaults.
const (
	// handshakeTimeout bounds the hello→welcome round trip.
	handshakeTimeout    = 5 * time.Second
	defaultQueryTimeout = 2 * time.Second
	defaultMaxStrikes   = 3
	defaultBackoffBase  = 50 * time.Millisecond
	defaultBackoffCap   = 1 * time.Second
	defaultSeed         = 888
)

// Config parameterizes a Supervisor.
type Config struct {
	// Command is the child command line (argv); Command[0] is the binary.
	Command []string
	// Env is extra environment appended to the parent's (tests use it to
	// steer the re-exec'd child); nil inherits the parent environment.
	Env []string
	// MemHW and StorHW describe the simulated platform; they travel in the
	// hello frame so the child computes against exactly this hardware.
	MemHW  soc.Memory
	StorHW soc.Storage
	// QueryTimeout bounds each batch round trip; a child that exceeds it
	// is declared hung and killed (0 = 2 s).
	QueryTimeout time.Duration
	// MaxStrikes is how many failed exchanges (crash, hang, garbage,
	// failed restart) the supervisor tolerates before opening the circuit
	// breaker and degrading permanently to the in-process models (0 = 3).
	MaxStrikes int
	// BackoffBase is the delay before the first restart; it doubles per
	// restart, capped at BackoffCap, with a deterministic ±50% jitter from
	// (Seed, restart count). Zero selects 50 ms / 1 s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Seed drives the backoff jitter stream (0 = 888).
	Seed uint64
	// ReplayPath names the replay-log file ("" disables replay logging).
	ReplayPath string
	// Stderr receives the child's stderr (nil discards it).
	Stderr io.Writer
}

func (c Config) normalize() Config {
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = defaultQueryTimeout
	}
	if c.MaxStrikes <= 0 {
		c.MaxStrikes = defaultMaxStrikes
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = defaultBackoffBase
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = defaultBackoffCap
	}
	if c.Seed == 0 {
		c.Seed = defaultSeed
	}
	return c
}

// SkewError reports a version-skewed or rejected handshake: the child
// speaks a different protocol, so restarting cannot help. It opens the
// circuit immediately without burning strikes.
type SkewError struct {
	Reason string
}

// Error implements error.
func (e *SkewError) Error() string { return "cosim: handshake failed permanently: " + e.Reason }

// ExchangeInfo reports what happened around one exchange: supervision
// events (restarts, circuit opening) and whether the replies came from the
// degraded in-process fallback.
type ExchangeInfo struct {
	// Notes lists supervision events that fired during this exchange.
	Notes []string
	// Degraded marks replies computed by the in-process fallback.
	Degraded bool
}

// child is one running model process.
type child struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout io.Closer
	stream *wire.Stream[Frame]
}

// Supervisor runs and guards one external timing process. All exchanges are
// serialized: the child answers one batch at a time, which keeps the
// failure attribution trivial (an unexpected or missing frame always
// belongs to the in-flight batch). Safe for concurrent use — but note that
// the serialization means a slow child stalls every session sharing the
// supervisor for up to QueryTimeout per batch. The recovery path does not
// compound that: restart backoff sleeps and replacement handshakes release
// the lock (see restartUnlocking), so a sick child never blocks the status
// accessors or other sessions for multiple seconds per strike.
type Supervisor struct {
	cfg Config
	log *ReplayLog
	// fallback answers queries in-process once the circuit opens.
	fallback answerFunc

	mu       sync.Mutex
	c        *child
	nextID   uint64
	strikes  int
	restarts int
	open     bool
	model    string
	exact    bool
	closed   bool
	// done is closed by Close, waking a restart backoff in progress.
	done chan struct{}
}

// NewSupervisor validates the config, opens the replay log, spawns the
// child and completes the version-checked handshake. Handshake failures at
// construction are returned as errors (fail fast at CLI startup) instead of
// opening the circuit.
func NewSupervisor(cfg Config) (*Supervisor, error) {
	if len(cfg.Command) == 0 || cfg.Command[0] == "" {
		return nil, fmt.Errorf("cosim: empty timing-model command")
	}
	cfg = cfg.normalize()
	s := &Supervisor{cfg: cfg, done: make(chan struct{})}
	fb, _, err := modelFor(ModelAnalytic, cfg.MemHW, cfg.StorHW)
	if err != nil {
		return nil, err
	}
	s.fallback = fb
	if cfg.ReplayPath != "" {
		if s.log, err = OpenReplayLog(cfg.ReplayPath); err != nil {
			return nil, err
		}
	}
	c, model, exact, err := s.spawn("", false)
	if err != nil {
		_ = s.log.Close()
		return nil, err
	}
	s.c, s.model, s.exact = c, model, exact
	return s, nil
}

// Model returns the child's model name from the welcome frame.
func (s *Supervisor) Model() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.model
}

// Exact reports whether the child declared its replies bit-identical to the
// in-process analytic models.
func (s *Supervisor) Exact() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exact
}

// Degraded reports whether the circuit breaker has opened: all further
// queries are answered by the in-process fallback.
func (s *Supervisor) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.open
}

// Close kills the child, then flushes and closes the replay log. The
// supervisor is unusable afterwards.
func (s *Supervisor) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	//mblint:ignore mutexhold Kill closes the child's pipes first, so Wait reaps promptly; teardown under s.mu is bounded
	s.killLocked()
	s.mu.Unlock()
	// The final flush runs outside s.mu: a slow disk at shutdown must not
	// stall status accessors or sessions still observing the closed state.
	return s.log.Close()
}

// Exchange answers the queries, in order: first from the replay log, then —
// for whatever the log cannot answer — from the supervised child (or the
// in-process fallback once the circuit is open). Every newly computed reply
// enters the log before Exchange returns it, so re-asking after a child
// crash or restart replays the same bytes. Replies reach disk in batches of
// replayFlushEvery: a kill -9 loses up to replayFlushEvery-1 replies since
// the last flush, which a resumed run re-asks; Close flushes the rest.
func (s *Supervisor) Exchange(queries []Query) ([]Reply, ExchangeInfo, error) {
	s.mu.Lock()
	//mblint:ignore mutexhold exchanges are serialized by contract — s.mu IS the one-batch-at-a-time serialization, and the recovery path's long waits release it (restartUnlocking)
	out, info, err := s.exchangeLocked(queries)
	s.mu.Unlock()
	if err != nil {
		return nil, info, err
	}
	// Newly computed replies become durable here, outside s.mu: the log
	// batches its own writes behind a dedicated write mutex, so neither
	// status accessors nor concurrent sessions queue behind the disk.
	if err := s.log.MaybeFlush(); err != nil {
		return nil, info, err
	}
	return out, info, nil
}

// exchangeLocked is Exchange's body; s.mu is held throughout (modulo the
// recovery waits, which release it — see askLocked).
func (s *Supervisor) exchangeLocked(queries []Query) ([]Reply, ExchangeInfo, error) {
	var info ExchangeInfo
	if s.closed {
		return nil, info, fmt.Errorf("cosim: supervisor is closed")
	}
	out := make([]Reply, len(queries))
	keys := make([]string, len(queries))
	var missing []int
	for i, q := range queries {
		k, err := queryKey(q)
		if err != nil {
			return nil, info, err
		}
		keys[i] = k
		raw, ok := s.log.Get(k)
		if !ok {
			missing = append(missing, i)
			continue
		}
		var r Reply
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, info, &LogError{Path: s.cfg.ReplayPath, Reason: "logged reply undecodable: " + err.Error()}
		}
		if r.Degraded {
			// A logged fallback-computed reply keeps its provenance on
			// replay: this run's data is partly analytic-fallback bytes even
			// if this supervisor's own circuit never opened.
			info.Degraded = true
		}
		out[i] = r
	}
	if len(missing) == 0 {
		return out, info, nil
	}
	sub := make([]Query, len(missing))
	for j, i := range missing {
		sub[j] = queries[i]
	}
	reps, err := s.askLocked(sub, &info)
	if err != nil {
		return nil, info, err
	}
	for j, i := range missing {
		raw, merr := json.Marshal(reps[j])
		if merr != nil {
			return nil, info, &ProtoError{Reason: "unencodable reply: " + merr.Error()}
		}
		s.log.Put(keys[i], raw)
		// The log wins ties: a restart wait releases the lock, so a
		// concurrent session may have answered (and logged) the same query
		// first. Every session must return the bytes a resume would replay —
		// the first write — not its own re-computation.
		if logged, ok := s.log.Get(keys[i]); ok {
			var r Reply
			if err := json.Unmarshal(logged, &r); err != nil {
				return nil, info, &LogError{Path: s.cfg.ReplayPath, Reason: "logged reply undecodable: " + err.Error()}
			}
			if r.Degraded {
				info.Degraded = true
			}
			out[i] = r
		} else {
			out[i] = reps[j] // replay logging disabled
		}
	}
	return out, info, nil
}

// askLocked obtains replies for queries the log could not answer, driving
// the strike/restart/circuit state machine until it has them. s.mu is held
// on entry and on every return, but restarts release it around their waits,
// so each iteration re-reads the shared state from scratch (the circuit may
// have opened, a replacement child may have appeared, or the supervisor may
// have been closed while this goroutine slept).
func (s *Supervisor) askLocked(queries []Query, info *ExchangeInfo) ([]Reply, error) {
	for {
		if s.closed {
			return nil, fmt.Errorf("cosim: supervisor closed mid-exchange")
		}
		if s.open {
			info.Degraded = true
			reps := make([]Reply, len(queries))
			for i, q := range queries {
				r, err := s.fallback(q)
				if err != nil {
					return nil, err
				}
				r.Degraded = true
				reps[i] = r
			}
			return reps, nil
		}
		if s.c == nil {
			if err := s.restartUnlocking(info); err != nil {
				// A skewed or rejected handshake on restart is permanent —
				// the replacement child speaks a different protocol (say, a
				// binary upgraded under us), and no amount of respawning
				// fixes that. Straight to the circuit, no strikes burned.
				if _, skew := err.(*SkewError); skew {
					s.openCircuitLocked(info, err)
				} else {
					s.strikeLocked(info, err)
				}
			}
			continue
		}
		reps, err := s.exchangeOnceLocked(queries)
		if err == nil {
			return reps, nil
		}
		s.strikeLocked(info, err)
	}
}

// strikeLocked records one failed exchange or restart: the child (if any)
// is killed, and once the strike budget is spent the circuit opens.
func (s *Supervisor) strikeLocked(info *ExchangeInfo, cause error) {
	s.strikes++
	s.killLocked()
	if s.strikes >= s.cfg.MaxStrikes {
		s.openCircuitLocked(info, cause)
		return
	}
	info.Notes = append(info.Notes,
		fmt.Sprintf("cosim: strike %d/%d against %s: %v", s.strikes, s.cfg.MaxStrikes, s.cfg.Command[0], cause))
}

// openCircuitLocked degrades the supervisor permanently to the in-process
// fallback.
func (s *Supervisor) openCircuitLocked(info *ExchangeInfo, cause error) {
	s.open = true
	s.killLocked()
	info.Notes = append(info.Notes,
		fmt.Sprintf("cosim: circuit opened after %d strikes, degrading to the in-process analytic models: %v", s.strikes, cause))
}

// restartUnlocking waits the capped deterministically-jittered backoff and
// spawns a fresh child. The backoff wait and the replacement's handshake —
// the two multi-second waits on the recovery path — run with s.mu released,
// so a sick child cannot stall concurrent sessions or the status accessors;
// after reacquiring, the shared state is revalidated (another session may
// have recovered, opened the circuit, or Close()d the supervisor first) and
// a child that lost the race is discarded. A Close during the backoff ends
// the wait and skips the spawn. s.mu is held again on every return path.
func (s *Supervisor) restartUnlocking(info *ExchangeInfo) error {
	// Jitter derived from (seed, restart count): the schedule is
	// reproducible run to run, like every other delay in the collection
	// pipeline.
	rng := xrand.New(s.cfg.Seed).Split(0xc0517).Split(uint64(s.restarts) + 1)
	t := time.NewTimer(xrand.Backoff(s.cfg.BackoffBase, s.cfg.BackoffCap, s.restarts, rng))
	defer t.Stop()
	s.restarts++
	attempt := s.restarts
	pinModel, pinExact := s.model, s.exact
	s.mu.Unlock()
	var (
		c     *child
		model string
		exact bool
		err   error
	)
	select {
	case <-s.done: // closed mid-wait: s.closed is set, so no child to spawn
	case <-t.C:
		c, model, exact, err = s.spawn(pinModel, pinExact)
	}
	s.mu.Lock()
	if s.closed || s.open || s.c != nil {
		// Lost the race: the caller's loop re-reads the new state; our own
		// child (if it came up) is surplus.
		if c != nil {
			//mblint:ignore mutexhold the surplus child is killed before Wait, which then reaps promptly off its closed pipes
			killChild(c)
		}
		return nil
	}
	if err != nil {
		return err
	}
	s.c, s.model, s.exact = c, model, exact
	info.Notes = append(info.Notes, fmt.Sprintf("cosim: restarted %s (restart %d)", s.cfg.Command[0], attempt))
	return nil
}

// spawn starts a child process and completes the handshake, pinning the
// model identity against (pinModel, pinExact) when a previous handshake set
// them. Called without s.mu held (it can block up to the handshake timeout);
// it touches only the immutable s.cfg, never the guarded state.
func (s *Supervisor) spawn(pinModel string, pinExact bool) (*child, string, bool, error) {
	cmd := exec.Command(s.cfg.Command[0], s.cfg.Command[1:]...)
	if s.cfg.Env != nil {
		cmd.Env = append(cmd.Environ(), s.cfg.Env...)
	}
	cmd.Stderr = s.cfg.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, "", false, fmt.Errorf("cosim: child stdin: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", false, fmt.Errorf("cosim: child stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, "", false, fmt.Errorf("cosim: starting %s: %w", s.cfg.Command[0], err)
	}
	c := &child{cmd: cmd, stdin: stdin, stdout: stdout, stream: wire.NewStream[Frame](stdout, stdin, MaxFrameBytes)}
	model, exact, err := s.handshake(c, pinModel, pinExact)
	if err != nil {
		killChild(c)
		return nil, "", false, err
	}
	return c, model, exact, nil
}

// handshake sends the hello and awaits a version-matching welcome within
// the handshake deadline, returning the child's announced (model, exact)
// identity. Version skew and rejects return a *SkewError (permanent);
// everything else is an ordinary failure the strike/restart machinery may
// recover from. Called without s.mu held.
func (s *Supervisor) handshake(c *child, pinModel string, pinExact bool) (string, bool, error) {
	memHW, storHW := s.cfg.MemHW, s.cfg.StorHW
	hello := Frame{Type: TypeHello, Proto: ProtoVersion, Memory: &memHW, Storage: &storHW}
	f, err := s.roundTrip(c, hello, handshakeTimeout)
	if err != nil {
		return "", false, err
	}
	switch f.Type {
	case TypeWelcome:
		if f.Proto != ProtoVersion {
			return "", false, &SkewError{Reason: fmt.Sprintf("child speaks protocol %d, this build speaks %d", f.Proto, ProtoVersion)}
		}
		if pinModel != "" && (pinModel != f.Model || pinExact != f.Exact) {
			// The model identity is pinned at construction; a restarted
			// child announcing a different model would silently change the
			// dataset mid-run.
			return "", false, &SkewError{Reason: fmt.Sprintf("child model changed from %q to %q across restart", pinModel, f.Model)}
		}
		return f.Model, f.Exact, nil
	case TypeReject:
		return "", false, &SkewError{Reason: "child rejected the handshake: " + f.Error}
	default:
		return "", false, &ProtoError{Reason: fmt.Sprintf("expected welcome, got %q", f.Type)}
	}
}

// exchangeOnceLocked performs one batch round trip against the live child.
func (s *Supervisor) exchangeOnceLocked(queries []Query) ([]Reply, error) {
	id := s.nextID
	s.nextID++
	f, err := s.roundTrip(s.c, Frame{Type: TypeBatch, ID: id, Queries: queries}, s.cfg.QueryTimeout)
	if err != nil {
		return nil, err
	}
	if f.Type != TypeReplies {
		return nil, &ProtoError{Reason: fmt.Sprintf("expected replies, got %q", f.Type)}
	}
	if f.ID != id {
		return nil, &ProtoError{Reason: fmt.Sprintf("replies for batch %d, expected %d", f.ID, id)}
	}
	if len(f.Replies) != len(queries) {
		return nil, &ProtoError{Reason: fmt.Sprintf("%d replies for %d queries", len(f.Replies), len(queries))}
	}
	for i, r := range f.Replies {
		switch queries[i].Kind {
		case KindMem:
			if r.Mem == nil {
				return nil, &ProtoError{Reason: fmt.Sprintf("reply %d misses the mem result", i)}
			}
		case KindIO:
			if r.IO == nil {
				return nil, &ProtoError{Reason: fmt.Sprintf("reply %d misses the io result", i)}
			}
		}
		// The degraded marker is supervisor provenance, not wire data: a
		// child cannot declare its own replies fallback-computed.
		f.Replies[i].Degraded = false
	}
	return f.Replies, nil
}

// roundTrip writes one frame and reads the reply within the deadline. A
// child still silent at the deadline is killed, which ends the read. That
// (a hang), EOF (a crash) and a malformed or oversized line (garbage, a
// *ProtoError) are errors the caller converts into a strike.
func (s *Supervisor) roundTrip(c *child, out Frame, timeout time.Duration) (Frame, error) {
	if err := c.stream.Send(out); err != nil {
		return Frame{}, fmt.Errorf("cosim: writing to child: %w", err)
	}
	watchdog := time.AfterFunc(timeout, func() {
		_ = c.cmd.Process.Kill()
		_ = c.stdout.Close() // a grandchild may still hold the pipe open
	})
	f, err := c.stream.Next()
	if !watchdog.Stop() {
		return Frame{}, fmt.Errorf("cosim: child did not answer within %v (hang)", timeout)
	}
	if errors.Is(err, io.EOF) {
		return Frame{}, fmt.Errorf("cosim: child exited (EOF on its stdout)")
	}
	return f, err
}

// killLocked tears the current child down (idempotent).
func (s *Supervisor) killLocked() {
	if s.c == nil {
		return
	}
	killChild(s.c)
	s.c = nil
}

func killChild(c *child) {
	_ = c.stdin.Close()
	if c.cmd.Process != nil {
		_ = c.cmd.Process.Kill()
	}
	// Reap the process; Wait completes promptly after the kill closed the
	// pipes.
	_ = c.cmd.Wait()
}
