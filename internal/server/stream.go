// Streaming ingest: POST /v1/stream feeds measurement records into the
// incremental re-clustering engine (core.StreamState) one at a time,
// keeping the validation sweep, the winning cluster count and the subset
// recommendation continuously current without re-running the batch
// pipeline per record.
//
// Durability follows the server's persist-before-accept discipline: a
// record is appended (and fsynced) to an append-only CRC log before the
// engine folds it, and only a folded record is acked — so an acked record
// survives kill -9 (the restart replays the log through the same
// deterministic engine), and a record that died mid-append was never
// acked. The monotonic change log (GET /v1/stream/changes?since=SEQ) lets
// pollers tail exactly what each ingest did.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"

	"mobilebench/internal/checkpoint"
	"mobilebench/internal/core"
)

// StreamConfig configures the streaming ingest path.
type StreamConfig struct {
	// Enabled turns the /v1/stream API on; the engine replays
	// StateDir/stream.log on startup.
	Enabled bool
	// KMin..KMax and Workers configure the analysis sweep (see
	// core.StreamOptions).
	KMin, KMax int
	Workers    int
	// Deprecated: ChurnLimit tuned the removed warm-start path; nothing
	// reads it. It remains only so existing callers still compile.
	ChurnLimit float64
	// Deprecated: Exact selected the cold refresh, which is now the only
	// refresh; nothing reads it. It remains only so existing callers
	// still compile.
	Exact bool
}

func (c StreamConfig) options() core.StreamOptions {
	return core.StreamOptions{KMin: c.KMin, KMax: c.KMax, Workers: c.Workers}
}

// streamEngine serializes ingests: one mutex covers the persist-then-fold
// sequence, so the log order, the sequence numbers and the engine's fold
// order can never disagree.
type streamEngine struct {
	mu      sync.Mutex
	opt     core.StreamOptions
	state   *core.StreamState
	records []core.StreamRecord // every folded record, in seq order
	changes []core.StreamDelta  // one delta per folded record
	log     *checkpoint.Log
	nextSeq uint64
	failed  error // set when a durable record failed to fold; wedges ingest
}

// streamWedgedError reports that a durably appended record failed to fold,
// so the in-memory state no longer covers the log. The engine refuses
// further ingests — appending another record would reuse the failed
// record's sequence number, and startup replay would then refuse to boot
// on the duplicate. A restart replays the log and surfaces the same fold
// error at startup instead of serving state that disagrees with disk.
type streamWedgedError struct{ err error }

func (e *streamWedgedError) Error() string { return e.err.Error() }
func (e *streamWedgedError) Unwrap() error { return e.err }

// newStreamEngine builds the engine, replaying any records a previous
// process durably acked. Replay re-folds each record through the same
// deterministic ingest the live path uses, so the rebuilt sweep, summary
// and change log are bit-identical to the pre-crash state.
func newStreamEngine(stateDir string, cfg StreamConfig) (*streamEngine, error) {
	if err := cfg.options().Validate(); err != nil {
		return nil, err
	}
	// RecoverLog drops any torn tail (a crash mid-append) before reopening
	// for append, so a new record can never merge with the torn bytes.
	log, payloads, err := checkpoint.RecoverLog(filepath.Join(stateDir, "stream.log"))
	if err != nil {
		return nil, err
	}
	e := &streamEngine{opt: cfg.options(), state: core.NewStreamState(cfg.options()), log: log, nextSeq: 1}
	for i, payload := range payloads {
		var rec core.StreamRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			_ = log.Close()
			return nil, fmt.Errorf("server: stream log record %d: %w", i+1, err)
		}
		delta, err := e.state.Ingest(context.Background(), rec)
		if err != nil {
			_ = log.Close()
			return nil, fmt.Errorf("server: replaying stream record %d: %w", i+1, err)
		}
		e.records = append(e.records, rec)
		e.changes = append(e.changes, delta)
		e.nextSeq = rec.Seq + 1
	}
	return e, nil
}

// ingest assigns the record its sequence number, persists it, and folds it
// into the engine.
func (e *streamEngine) ingest(rec core.StreamRecord) (core.StreamDelta, error) {
	if err := rec.Validate(); err != nil {
		return core.StreamDelta{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.failed != nil {
		return core.StreamDelta{}, &streamWedgedError{err: e.failed}
	}
	rec.Seq = e.nextSeq
	payload, err := json.Marshal(rec)
	if err != nil {
		return core.StreamDelta{}, err
	}
	// Persist before accept: if the append fails the record was never
	// acked and the engine never sees it. A failed fsync wedges the log, so
	// a record that may have reached disk anyway never has its sequence
	// number reused.
	//mblint:ignore mutexhold the persist-then-fold sequence IS the critical section — the fsynced append and the engine fold must land in the same order for every record, or a crash could replay records in an order the acked deltas never saw; one fsync of one line is bounded
	if err := e.log.Append(payload); err != nil {
		return core.StreamDelta{}, err
	}
	// The record is durable, so the fold must complete: Background, not a
	// request context — a client disconnect must not leave a persisted
	// record unapplied (replay would fold it, and the live state would
	// disagree with the log).
	//mblint:ignore mutexhold serializing folds under e.mu is the engine's ordering contract (core.StreamState is not safe for concurrent use); an incremental refresh is the bounded fast path this PR exists for, and readers only ever wait one refresh
	delta, err := e.state.Ingest(context.Background(), rec)
	if err != nil {
		// The record is durable but the state could not absorb it (folding
		// can fail past validation — e.g. in summarize()'s subset step).
		// Folding is deterministic, so retrying cannot help, and accepting
		// another record would reuse this sequence number — replay would
		// then refuse to boot on the duplicate. Wedge the engine: every
		// further ingest fails until a restart replays the log and surfaces
		// this same error at startup.
		e.failed = fmt.Errorf("server: stream record seq %d is durable but failed to fold: %w (restart to replay)", rec.Seq, err)
		return core.StreamDelta{}, &streamWedgedError{err: e.failed}
	}
	e.nextSeq++
	e.records = append(e.records, rec)
	e.changes = append(e.changes, delta)
	return delta, nil
}

// summary returns the engine's current published analysis.
func (e *streamEngine) summary() core.Summary {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state.Summary()
}

// changesSince returns every delta with Seq > since, plus the last folded
// sequence number.
func (e *streamEngine) changesSince(since uint64) ([]core.StreamDelta, uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	// Sequences are assigned contiguously from 1, so the tail starts at
	// index since; no scan needed. Clamp in uint64 space — converting
	// first would turn a since past 2^63 negative and panic the slice.
	if since > uint64(len(e.changes)) {
		since = uint64(len(e.changes))
	}
	out := append([]core.StreamDelta(nil), e.changes[since:]...)
	return out, e.state.LastSeq()
}

// reportSpec builds the batch re-analysis job for the current stream: a
// "streamreport" spec carrying a snapshot of the folded records, whose
// cold StreamBatch result is byte-identical to the incremental summary.
func (e *streamEngine) reportSpec() Spec {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Spec{
		Kind:          "streamreport",
		StreamRecords: append([]core.StreamRecord(nil), e.records...),
		StreamKMin:    e.opt.KMin,
		StreamKMax:    e.opt.KMax,
		Workers:       e.opt.Workers,
	}
}

// close releases the append log.
func (e *streamEngine) close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.log.Close()
}

// HTTP handlers ------------------------------------------------------------

func (s *Server) handleStreamIngest(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "server: draining, not accepting records"})
		return
	}
	var rec core.StreamRecord
	if err := json.NewDecoder(r.Body).Decode(&rec); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return
	}
	if rec.Seq != 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "server: the stream assigns sequence numbers; omit seq"})
		return
	}
	delta, err := s.stream.ingest(rec)
	if err != nil {
		var wedged *streamWedgedError
		if errors.As(err, &wedged) {
			// Server-side failure, not a bad record: the engine refuses
			// ingests until a restart replays the log.
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, delta)
}

func (s *Server) handleStreamState(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.stream.summary())
}

// streamChanges is the GET /v1/stream/changes response.
type streamChanges struct {
	// Since echoes the request's cursor; Changes holds every delta with
	// Seq > Since, in sequence order. LastSeq is the newest folded
	// sequence — pass it back as the next request's since to tail.
	Since   uint64             `json:"since"`
	LastSeq uint64             `json:"last_seq"`
	Changes []core.StreamDelta `json:"changes"`
}

func (s *Server) handleStreamChanges(w http.ResponseWriter, r *http.Request) {
	since := uint64(0)
	if q := r.URL.Query().Get("since"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad since: " + err.Error()})
			return
		}
		since = v
	}
	changes, last := s.stream.changesSince(since)
	writeJSON(w, http.StatusOK, streamChanges{Since: since, LastSeq: last, Changes: changes})
}

// handleStreamReport submits a batch re-analysis of the ingested stream as
// a regular job: it runs through the queue, the content-addressed cache
// and — in coordinator mode — the fleet's lease protocol, and its result
// bytes match the incremental summary.
func (s *Server) handleStreamReport(w http.ResponseWriter, _ *http.Request) {
	job, err := s.Submit(s.stream.reportSpec())
	s.writeSubmitted(w, job, err)
}
