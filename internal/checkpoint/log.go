// Append-only record log: the second of the package's two persistence
// primitives (beside AtomicFile's whole-blob replace). A sequence of
// records wants O(1) durable appends, not a rewrite of everything before
// each one — each record becomes one CRC-guarded line, fsynced before the
// append returns, so an acked record survives a crash and a torn final
// write (power loss mid-append) is detected and dropped without condemning
// the records before it. Collection checkpoints, stream ingest and the
// cosim replay log all persist through it.
//
// Framing: one record per line, "crc32c-hex payload\n". The payload is an
// opaque single-line byte string (JSON or base64); the CRC (Castagnoli)
// covers the payload bytes only. A trailing line with no newline is a torn
// append — Append writes the newline with the record, so the write never
// completed and the record was never acked; readers drop it, and RecoverLog
// truncates it away before appending again. A newline-terminated line that
// fails its CRC — even the final one — was fully written, acked, and
// damaged after the fact, which readers must refuse to silently repair.
//
// Failure policy: a failed write is truncated back to the last good
// record, so the next append cannot merge into a fragment. A failed fsync,
// or a failed truncate-back, wedges the log — after a failed fsync the page
// cache cannot be trusted (PostgreSQL's 2018 "fsyncgate"), so it is never
// retried and every later Append returns the original error.
package checkpoint

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// logFile is the slice of *os.File a Log writes through; tests substitute
// a short-writing or failing fake.
type logFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Log is an append-only record log. Appends are durable when they return;
// concurrent appenders must serialize externally (the log holds no lock:
// each caller — the stream ingest path, the replay log's flusher — already
// owns the ordering).
type Log struct {
	f      logFile
	good   int64 // offset just past the last good record
	wedged error // once set, every Append returns it
}

// OpenLog opens (creating if absent) the log at path for appending and
// syncs the parent directory so the file itself survives a crash. A log a
// crashed process may have left behind is reopened with RecoverLog.
func OpenLog(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: opening log: %w", err)
	}
	st, err := f.Stat()
	if err == nil {
		err = syncDir(filepath.Dir(path))
	}
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	return &Log{f: f, good: st.Size()}, nil
}

// RecoverLog is the one way to reopen a log that a crashed process may
// have left behind: it reads every acked record (ReadLog), truncates any
// torn final append, and opens the log for appending. Without the
// truncate, the next record would land directly after the torn bytes and
// merge with them into one unparseable line — acked, yet dropped as
// "torn" on the following replay; discarding the tail is safe precisely
// because a record without its newline was never acked. A missing file is
// an empty log; damage to an acked record is a *CorruptLogError and
// nothing is modified.
func RecoverLog(path string) (*Log, [][]byte, error) {
	payloads, valid, err := ReadLog(path)
	if err != nil {
		return nil, nil, err
	}
	l, err := OpenLog(path)
	if err != nil {
		return nil, nil, err
	}
	if l.good > valid {
		err := l.f.Truncate(valid)
		if err == nil {
			err = l.f.Sync()
		}
		if err != nil {
			_ = l.Close()
			return nil, nil, fmt.Errorf("checkpoint: truncating torn log tail: %w", err)
		}
		l.good = valid
	}
	return l, payloads, nil
}

// Append writes the records as one write and fsyncs once before
// returning: when Append returns nil every record is on disk, which is
// what lets an ingest path ack only after persisting. No payload may
// contain a newline (the record separator). On error none of the records
// was acked; see the package comment for when the log wedges.
func (l *Log) Append(payloads ...[]byte) error {
	if l.wedged != nil {
		return l.wedged
	}
	var buf []byte
	for _, p := range payloads {
		if bytes.IndexByte(p, '\n') >= 0 {
			return fmt.Errorf("checkpoint: log payload must not contain a newline")
		}
		buf = fmt.Appendf(buf, "%08x ", crc32.Checksum(p, crcTable))
		buf = append(buf, p...)
		buf = append(buf, '\n')
	}
	if len(buf) == 0 {
		return nil
	}
	if _, err := l.f.Write(buf); err != nil {
		err = fmt.Errorf("checkpoint: appending log record: %w", err)
		// Drop whatever part of the write landed, so the next record
		// starts on a clean line instead of completing a fragment.
		if terr := l.f.Truncate(l.good); terr != nil {
			l.wedged = fmt.Errorf("%w (truncating the partial write also failed: %v)", err, terr)
			return l.wedged
		}
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.wedged = fmt.Errorf("checkpoint: syncing log: %w", err)
		return l.wedged
	}
	l.good += int64(len(buf))
	return nil
}

// Close closes the underlying file.
func (l *Log) Close() error { return l.f.Close() }

// CorruptLogError reports damage before the final record — data that was
// once acked and is no longer intact, which replay must not paper over.
type CorruptLogError struct {
	Path string
	Line int // 1-based line number of the damaged record
	Why  string
}

func (e *CorruptLogError) Error() string {
	return fmt.Sprintf("checkpoint: log %s corrupt at line %d: %s", e.Path, e.Line, e.Why)
}

// ReadLog returns every acked record payload in append order, plus the
// byte length of the valid prefix — the offset just past the last intact,
// newline-terminated record. A missing file is an empty log. A final line
// with no trailing newline is a torn append: the write never completed, so
// the record was never acked, and it is dropped — whatever its bytes look
// like, even a payload whose CRC happens to verify (the missing newline
// means Append never returned); RecoverLog truncates the file to the
// returned length before reopening it for append. A newline-terminated
// line that fails to parse — including the final one — was acked and then
// damaged, and is a *CorruptLogError. So is a file whose first bytes are
// not record framing: it is not a log at all (say, another format left at
// the path), and recovery must not truncate it away as a torn append.
func ReadLog(path string) ([][]byte, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("checkpoint: reading log: %w", err)
	}
	return parseLog(path, data)
}

// parseLog is ReadLog on the file's bytes. The payloads alias data.
func parseLog(path string, data []byte) ([][]byte, int64, error) {
	var out [][]byte
	valid := int64(0)
	lineNo := 0
	for len(data) > 0 {
		lineNo++
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			if valid == 0 && !framingPrefix(data) {
				return nil, 0, &CorruptLogError{Path: path, Line: lineNo, Why: "not a record log"}
			}
			break // torn append: never acked, excluded from the valid prefix
		}
		line := data[:i]
		data = data[i+1:]
		payload, why := parseLogLine(line)
		if why != "" {
			return nil, valid, &CorruptLogError{Path: path, Line: lineNo, Why: why}
		}
		out = append(out, payload)
		valid += int64(i) + 1
	}
	return out, valid, nil
}

// parseLogLine splits "crc32c-hex payload" and verifies the CRC, returning
// the payload or a non-empty reason.
func parseLogLine(line []byte) ([]byte, string) {
	if len(line) < 9 || line[8] != ' ' {
		return nil, "malformed record framing"
	}
	sum := make([]byte, 4)
	if _, err := hex.Decode(sum, line[:8]); err != nil {
		return nil, "malformed CRC"
	}
	want := uint32(sum[0])<<24 | uint32(sum[1])<<16 | uint32(sum[2])<<8 | uint32(sum[3])
	payload := line[9:]
	if crc32.Checksum(payload, crcTable) != want {
		return nil, "CRC mismatch"
	}
	return payload, ""
}

// framingPrefix reports whether b begins like a record line: up to eight
// hex CRC digits, then the separating space.
func framingPrefix(b []byte) bool {
	for i, c := range b[:min(len(b), 9)] {
		isHex := strings.IndexByte("0123456789abcdefABCDEF", c) >= 0
		if (i < 8 && !isHex) || (i == 8 && c != ' ') {
			return false
		}
	}
	return true
}
