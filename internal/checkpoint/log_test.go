package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

func writeLogRecords(t *testing.T, path string, records ...string) {
	t.Helper()
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, r := range records {
		if err := l.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.log")
	writeLogRecords(t, path, `{"seq":1}`, `{"seq":2}`, `{"seq":3}`)

	// Reopening appends, never truncates.
	writeLogRecords(t, path, `{"seq":4}`)

	got, valid, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || valid != st.Size() {
		t.Fatalf("valid prefix = %d, want the whole file", valid)
	}
	want := []string{`{"seq":1}`, `{"seq":2}`, `{"seq":3}`, `{"seq":4}`}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestLogMissingFileIsEmpty(t *testing.T) {
	got, valid, err := ReadLog(filepath.Join(t.TempDir(), "absent.log"))
	if err != nil || got != nil || valid != 0 {
		t.Fatalf("ReadLog(absent) = %v, %d, %v; want nil, 0, nil", got, valid, err)
	}
}

func TestLogRejectsNewlinePayload(t *testing.T) {
	l, err := OpenLog(filepath.Join(t.TempDir(), "stream.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]byte("two\nlines")); err == nil {
		t.Fatal("Append accepted a payload containing the record separator")
	}
}

// A torn final append — truncated at any byte boundary short of the
// newline — drops only the final record: everything acked before it reads
// back intact, and the valid prefix ends at the last acked record so
// recovery can truncate the torn bytes away. The torn record is dropped
// even when the cut lands after its full payload (cut == len(full)-1, CRC
// verifies): without the newline, Append never returned, so it was never
// acked.
func TestLogTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stream.log")
	writeLogRecords(t, path, `{"seq":1}`, `{"seq":2}`, `{"seq":3}`)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(full), "\n")
	prefix := len(lines[0]) + len(lines[1])

	for cut := prefix + 1; cut < len(full); cut++ {
		torn := filepath.Join(dir, "torn.log")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, valid, err := ReadLog(torn)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(got) != 2 || string(got[0]) != `{"seq":1}` || string(got[1]) != `{"seq":2}` {
			t.Fatalf("cut at %d: read %d records, want the 2 acked ones", cut, len(got))
		}
		if valid != int64(prefix) {
			t.Fatalf("cut at %d: valid prefix %d, want %d", cut, valid, prefix)
		}
	}
}

// The crash-mid-append recovery sequence: a torn tail must be truncated
// before appending again — the log opens O_APPEND, so without the truncate
// the next record lands directly after the torn bytes and the merged line
// would drop an acked record on the following read. RecoverLog does both.
func TestLogTruncateTornTailThenAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.log")
	writeLogRecords(t, path, `{"seq":1}`, `{"seq":2}`)
	// Crash mid-append: half a record, no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(`0badc0de {"se`)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l, got, err := RecoverLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d records, want 2", len(got))
	}

	// The recovered log round-trips the next acked record.
	if err := l.Append([]byte(`{"seq":3}`)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	got, _, err = ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`{"seq":1}`, `{"seq":2}`, `{"seq":3}`}
	if len(got) != len(want) {
		t.Fatalf("after recovery read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// Recovery is a no-op on a missing file (an empty log) or an already-clean
// log.
func TestLogTruncateNoop(t *testing.T) {
	l, got, err := RecoverLog(filepath.Join(t.TempDir(), "absent.log"))
	if err != nil || len(got) != 0 {
		t.Fatalf("RecoverLog(absent) = %v, %v", got, err)
	}
	l.Close()
	path := filepath.Join(t.TempDir(), "stream.log")
	writeLogRecords(t, path, `{"seq":1}`)
	l, _, err = RecoverLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	got, _, err = ReadLog(path)
	if err != nil || len(got) != 1 || string(got[0]) != `{"seq":1}` {
		t.Fatalf("clean log damaged by no-op recovery: %v, %v", got, err)
	}
}

// Damage before the final record is corruption of acked data and must be
// refused, not silently skipped.
func TestLogCorruptMiddleRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stream.log")
	writeLogRecords(t, path, `{"seq":1}`, `{"seq":2}`, `{"seq":3}`)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the middle record.
	lines := strings.SplitAfter(string(full), "\n")
	corrupted := []byte(lines[0] + strings.Replace(lines[1], `"seq":2`, `"seq":9`, 1) + lines[2])
	bad := filepath.Join(dir, "bad.log")
	if err := os.WriteFile(bad, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = ReadLog(bad)
	var ce *CorruptLogError
	if !errors.As(err, &ce) {
		t.Fatalf("ReadLog(corrupt middle) = %v, want *CorruptLogError", err)
	}
	if ce.Line != 2 {
		t.Fatalf("corrupt line = %d, want 2", ce.Line)
	}
}

// A newline-terminated final line that fails its CRC is not a torn append:
// the record was fully written and acked, so its damage is post-hoc
// corruption that must be refused, not silently dropped.
func TestLogCorruptFinalRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.log")
	writeLogRecords(t, path, `{"seq":1}`, `{"seq":2}`)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := strings.Replace(string(full), `"seq":2`, `"seq":9`, 1)
	if err := os.WriteFile(path, []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = ReadLog(path)
	var ce *CorruptLogError
	if !errors.As(err, &ce) || ce.Line != 2 {
		t.Fatalf("ReadLog(corrupt final) = %v, want *CorruptLogError at line 2", err)
	}
}

// faultFile is a logFile that can land only half of a write, or fail a
// sync or truncate, on demand; it counts the calls that reach it.
type faultFile struct {
	*os.File
	shortWrites, failSyncs, failTruncates int
	writes, syncs                         int
}

func (f *faultFile) Write(p []byte) (int, error) {
	f.writes++
	if f.shortWrites > 0 {
		f.shortWrites--
		n, _ := f.File.Write(p[:len(p)/2])
		return n, syscall.ENOSPC
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	f.syncs++
	if f.failSyncs > 0 {
		f.failSyncs--
		return syscall.EIO
	}
	return f.File.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if f.failTruncates > 0 {
		f.failTruncates--
		return syscall.EIO
	}
	return f.File.Truncate(size)
}

// openFaultLog opens a log at path whose file is a faultFile.
func openFaultLog(t *testing.T, path string) (*Log, *faultFile) {
	t.Helper()
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	ff := &faultFile{File: l.f.(*os.File)}
	l.f = ff
	t.Cleanup(func() { l.Close() })
	return l, ff
}

func wantRecords(t *testing.T, path string, want ...string) {
	t.Helper()
	got, _, err := ReadLog(path)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// A short write (ENOSPC mid-record) leaves a fragment; the log truncates
// it away, so the next acked record starts on a clean line and reads back
// with no CorruptLogError.
func TestLogShortWriteThenAppendReadsClean(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.log")
	l, ff := openFaultLog(t, path)
	if err := l.Append([]byte(`{"seq":1}`)); err != nil {
		t.Fatal(err)
	}
	ff.shortWrites = 1
	if err := l.Append([]byte(`{"seq":2}`)); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("short write returned %v, want ENOSPC", err)
	}
	if err := l.Append([]byte(`{"seq":2}`), []byte(`{"seq":3}`)); err != nil {
		t.Fatalf("append after a truncated short write: %v", err)
	}
	wantRecords(t, path, `{"seq":1}`, `{"seq":2}`, `{"seq":3}`)
}

// After a failed fsync the log is wedged: every later Append returns the
// original error and never reaches the file again, so the fsync is never
// retried and an unacked record that may be on disk is never followed.
func TestLogSyncFailureWedges(t *testing.T) {
	l, ff := openFaultLog(t, filepath.Join(t.TempDir(), "stream.log"))
	ff.failSyncs = 1
	first := l.Append([]byte(`{"seq":1}`))
	if !errors.Is(first, syscall.EIO) {
		t.Fatalf("failed sync returned %v, want EIO", first)
	}
	writes, syncs := ff.writes, ff.syncs
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte(`{"seq":1}`)); err != first {
			t.Fatalf("append %d after a failed sync = %v, want the original error %v", i, err, first)
		}
	}
	if ff.writes != writes || ff.syncs != syncs {
		t.Fatalf("wedged log issued %d writes and %d syncs", ff.writes-writes, ff.syncs-syncs)
	}
}

// A failed write whose truncate-back also fails leaves a fragment the log
// cannot remove, so the log wedges instead of appending after it.
func TestLogFailedTruncateWedges(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.log")
	l, ff := openFaultLog(t, path)
	ff.shortWrites, ff.failTruncates = 1, 1
	first := l.Append([]byte(`{"seq":1}`))
	if !errors.Is(first, syscall.ENOSPC) {
		t.Fatalf("short write returned %v, want ENOSPC", first)
	}
	if err := l.Append([]byte(`{"seq":1}`)); err != first {
		t.Fatalf("append after a failed truncate = %v, want the original error", err)
	}
	if ff.writes != 1 {
		t.Fatalf("wedged log issued %d more writes", ff.writes-1)
	}
}

// A batch Append is one write and one fsync, however many records it
// carries.
func TestLogAppendBatchIsOneWriteOneSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.log")
	l, ff := openFaultLog(t, path)
	if err := l.Append([]byte("a"), []byte("b"), []byte("c")); err != nil {
		t.Fatal(err)
	}
	if ff.writes != 1 || ff.syncs != 1 {
		t.Fatalf("batch append issued %d writes and %d syncs, want 1 and 1", ff.writes, ff.syncs)
	}
	if err := l.Append(); err != nil || ff.writes != 1 {
		t.Fatalf("empty append = %v after %d writes, want a no-op", err, ff.writes)
	}
	wantRecords(t, path, "a", "b", "c")
}

// A file whose first bytes are not record framing is some other format
// left at the path: reading refuses it, and recovery leaves it untouched
// rather than truncating it away as one long torn append.
func TestLogRefusesForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.log")
	foreign := []byte("MBRL\x01\x00\x00\x00 not a record log")
	if err := os.WriteFile(path, foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := RecoverLog(path)
	var ce *CorruptLogError
	if !errors.As(err, &ce) || ce.Line != 1 {
		t.Fatalf("RecoverLog(foreign) = %v, want *CorruptLogError at line 1", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != string(foreign) {
		t.Fatalf("recovery modified a foreign file: %q, %v", got, err)
	}
}
