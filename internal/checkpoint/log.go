// Append-only record log: the persist-before-accept store behind streaming
// ingest. Where the MBCP snapshot rewrites the whole state atomically per
// update, a stream of small records wants O(1) durable appends — each
// record becomes one CRC-guarded line, fsynced before the append returns,
// so an acked record survives a crash and a torn final write (power loss
// mid-append) is detected and dropped without condemning the records
// before it.
//
// Framing: one record per line, "crc32c-hex payload\n". The payload is an
// opaque single-line byte string (in practice JSON); the CRC (Castagnoli)
// covers the payload bytes only. A trailing line with no newline is a torn
// append — Append writes the newline with the record, so the write never
// completed and the record was never acked; readers drop it, and recovery
// must TruncateLog it away before appending again (the log opens O_APPEND,
// so a new record written after torn bytes would merge with them into one
// unparseable line). A newline-terminated line that fails its CRC — even
// the final one — was fully written, acked, and damaged after the fact,
// which readers must refuse to silently repair.
package checkpoint

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Log is an append-only record log. Appends are durable when they return;
// concurrent appenders must serialize externally (the log holds no lock:
// its single caller, the stream ingest path, already owns the ordering).
type Log struct {
	f    *os.File
	path string
}

// OpenLog opens (creating if absent) the log at path for appending and
// syncs the parent directory so the file itself survives a crash.
func OpenLog(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: opening log: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		_ = f.Close()
		return nil, err
	}
	return &Log{f: f, path: path}, nil
}

// Append writes one record and fsyncs before returning: when Append
// returns nil the record is on disk, which is what lets an ingest path ack
// only after persisting. The payload must not contain a newline (the
// record separator).
func (l *Log) Append(payload []byte) error {
	if bytes.IndexByte(payload, '\n') >= 0 {
		return fmt.Errorf("checkpoint: log payload must not contain a newline")
	}
	line := make([]byte, 0, len(payload)+10)
	line = fmt.Appendf(line, "%08x ", crc32.Checksum(payload, crcTable))
	line = append(line, payload...)
	line = append(line, '\n')
	if _, err := l.f.Write(line); err != nil {
		return fmt.Errorf("checkpoint: appending log record: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: syncing log: %w", err)
	}
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
// means Append never returned). Recovery must TruncateLog the file to the
// returned length before reopening it for append. A newline-terminated
// line that fails to parse — including the final one — was acked and then
// damaged, and is a *CorruptLogError.
func ReadLog(path string) ([][]byte, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("checkpoint: reading log: %w", err)
	}
	var out [][]byte
	valid := int64(0)
	lineNo := 0
	for len(data) > 0 {
		lineNo++
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
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

// TruncateLog drops a torn final append by truncating the log at path to
// size, the valid-prefix length ReadLog reported. Recovery must do this
// before reopening the log: OpenLog appends with O_APPEND, so the next
// record would otherwise land directly after the torn bytes and merge with
// them into one unparseable line — acked, yet dropped as "torn" on the
// following replay. Discarding the tail is safe precisely because a record
// without its newline was never acked. A missing file, or one already no
// longer than size, is a no-op.
func TruncateLog(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("checkpoint: opening log for truncation: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("checkpoint: stat log: %w", err)
	}
	if st.Size() <= size {
		return nil
	}
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("checkpoint: truncating torn log tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: syncing truncated log: %w", err)
	}
	return nil
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
	return append([]byte(nil), payload...), ""
}
