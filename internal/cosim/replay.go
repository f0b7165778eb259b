// The deterministic replay log: every reply the supervisor accepts (from
// the child or its own degradation fallback) is recorded under the query's
// canonical bytes. A restarted child, a later attempt of the same run, or a
// -resume'd collection replays logged replies instead of re-asking, so a
// collection is bit-reproducible even when the child crashed mid-phase —
// the same guarantee MBCP checkpoints give completed (unit, run) pairs,
// one protocol layer further down. Replies reach disk in batches: a kill -9
// loses at most replayFlushEvery-1 replies since the last flush, and a
// resumed run re-asks those (Close flushes everything).
package cosim

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"mobilebench/internal/checkpoint"
)

// replayFlushEvery is how many new records accumulate before MaybeFlush
// appends them to the log (it also flushes on Close/Flush).
const replayFlushEvery = 256

// LogError reports an unusable replay-log file. Corruption is loud: a
// damaged log could silently serve wrong replies, so it fails the open
// instead of degrading.
type LogError struct {
	Path   string
	Reason string
}

// Error implements error.
func (e *LogError) Error() string { return fmt.Sprintf("cosim: replay log %s: %s", e.Path, e.Reason) }

// replayRecord is one logged reply: the payload of one checkpoint.Log
// line. JSON strings round-trip any valid UTF-8 byte-exactly, and keys and
// replies are JSON text.
type replayRecord struct {
	Key   string `json:"k"`
	Reply string `json:"r"`
}

// recordLog is the slice of *checkpoint.Log a ReplayLog appends through;
// tests substitute a failing fake.
type recordLog interface {
	Append(payloads ...[]byte) error
	Close() error
}

// ReplayLog is the supervisor's reply cache: an in-memory map persisted as
// an append-only checkpoint.Log, one CRC line per (key, reply). A nil
// *ReplayLog is valid and caches nothing (replay disabled). Safe for
// concurrent use.
//
// Persistence is deferred: Put is pure in-memory, and flushing snapshots
// the pending batch under mu but appends it under a separate write mutex,
// so Get/Put/Len are never stalled behind disk I/O (a flush under the map
// mutex would block every reader for the duration of a file write).
type ReplayLog struct {
	// mu guards the map and the pending batch; it is only ever held for
	// in-memory work.
	mu      sync.Mutex
	m       map[string][]byte
	pending []replayRecord // Put since the last durable flush, in order
	// wmu serializes flushers' appends. Taken before mu, never while
	// holding it, and never by Get/Put/Len.
	wmu sync.Mutex
	log recordLog
}

// OpenReplayLog loads the log at path, or starts an empty one when the file
// does not exist yet. A torn final append (a crash mid-flush) is dropped;
// a damaged record, or a file that is not a record log, returns a
// *LogError.
func OpenReplayLog(path string) (*ReplayLog, error) {
	lg, payloads, err := checkpoint.RecoverLog(path)
	var ce *checkpoint.CorruptLogError
	if errors.As(err, &ce) {
		return nil, &LogError{Path: path, Reason: fmt.Sprintf("line %d: %s", ce.Line, ce.Why)}
	}
	if err != nil {
		return nil, err
	}
	l := &ReplayLog{m: make(map[string][]byte, len(payloads)), log: lg}
	for i, p := range payloads {
		var rec replayRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			_ = lg.Close()
			return nil, &LogError{Path: path, Reason: fmt.Sprintf("line %d: %v", i+1, err)}
		}
		if _, ok := l.m[rec.Key]; !ok {
			l.m[rec.Key] = []byte(rec.Reply)
		}
	}
	return l, nil
}

// Get returns the logged reply bytes for the query key.
func (l *ReplayLog) Get(key string) ([]byte, bool) {
	if l == nil {
		return nil, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.m[key]
	return v, ok
}

// Put records a reply under its query key, purely in memory. Re-putting
// an existing key is a no-op: first write wins, so a reply can never
// change under a key. Callers make the record durable with MaybeFlush
// (batched) or Flush (unconditional) once they are outside their own
// critical sections.
func (l *ReplayLog) Put(key string, reply []byte) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.m[key]; ok {
		return
	}
	rec := replayRecord{Key: key, Reply: string(reply)}
	l.m[key] = []byte(rec.Reply)
	l.pending = append(l.pending, rec)
}

// Len returns the number of logged replies.
func (l *ReplayLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.m)
}

// MaybeFlush persists the pending records once enough accumulated since
// the last durable flush. The supervisor calls it after every exchange,
// outside its own mutex.
func (l *ReplayLog) MaybeFlush() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	dirty := len(l.pending)
	l.mu.Unlock()
	if dirty < replayFlushEvery {
		return nil
	}
	return l.Flush()
}

// Flush appends every pending record to the log in one fsynced append, so
// the bytes written over a run equal the log's size. The batch is
// snapshotted under the map mutex, but the append happens under the
// separate write mutex, so concurrent Get/Put never wait on disk. A failed
// append leaves the batch pending, and the next flush retries it.
func (l *ReplayLog) Flush() error {
	if l == nil {
		return nil
	}
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.mu.Lock()
	batch := l.pending[:len(l.pending):len(l.pending)]
	l.mu.Unlock()
	if len(batch) == 0 {
		return nil
	}
	payloads := make([][]byte, len(batch))
	for i, rec := range batch {
		p, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		payloads[i] = p
	}
	//mblint:ignore mutexhold l.wmu exists solely to serialize flushers' appends; Get/Put/Len never take it
	if err := l.log.Append(payloads...); err != nil {
		return err
	}
	l.mu.Lock()
	// Puts that arrived during the append are newer than the batch on
	// disk; they stay pending.
	l.pending = l.pending[len(batch):]
	l.mu.Unlock()
	return nil
}

// Close flushes the pending records and closes the log file.
func (l *ReplayLog) Close() error {
	if l == nil {
		return nil
	}
	err := l.Flush()
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if cerr := l.log.Close(); err == nil {
		err = cerr
	}
	return err
}
