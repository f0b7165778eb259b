package cosim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func tmpLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "replay.log")
}

func openLog(t *testing.T, path string) *ReplayLog {
	t.Helper()
	l, err := OpenReplayLog(path)
	if err != nil {
		t.Fatalf("OpenReplayLog: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func fileBytes(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestReplayLogRoundTrip: put, flush, reopen, get the same bytes back.
func TestReplayLogRoundTrip(t *testing.T) {
	path := tmpLog(t)
	l, err := OpenReplayLog(path)
	if err != nil {
		t.Fatalf("OpenReplayLog: %v", err)
	}
	l.Put("q1", []byte(`{"mem":{}}`))
	l.Put("q2", []byte(`{"io":{}}`))
	if err := l.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	re, err := OpenReplayLog(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if re.Len() != 2 {
		t.Fatalf("reopened log has %d records, want 2", re.Len())
	}
	v, ok := re.Get("q1")
	if !ok || string(v) != `{"mem":{}}` {
		t.Fatalf("Get(q1) = %q, %v", v, ok)
	}
}

// TestReplayLogByteExact: keys and replies round-trip byte for byte,
// whatever characters they hold and whether or not the reply is JSON.
func TestReplayLogByteExact(t *testing.T) {
	path := tmpLog(t)
	want := map[string]string{
		`{"q":"<a & b>"}`:                 `{"r":"x<y&z>"}`,
		`{"q":"Snapdragon 888 — µs, 温度"}`: `{"note":"naïve ✓"}`,
		"not json \\ \" \t key":           "not json either: <&> \x01 ünïcode",
		"":                                "",
	}
	l := openLog(t, path)
	for k, v := range want {
		l.Put(k, []byte(v))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re := openLog(t, path)
	if re.Len() != len(want) {
		t.Fatalf("reopened log has %d records, want %d", re.Len(), len(want))
	}
	for k, v := range want {
		if got, ok := re.Get(k); !ok || string(got) != v {
			t.Fatalf("Get(%q) = %q, %v; want %q", k, got, ok, v)
		}
	}
}

// TestReplayLogFirstWriteWins: a reply can never change under its key.
func TestReplayLogFirstWriteWins(t *testing.T) {
	l, err := OpenReplayLog(tmpLog(t))
	if err != nil {
		t.Fatal(err)
	}
	l.Put("k", []byte("first"))
	l.Put("k", []byte("second"))
	if v, _ := l.Get("k"); string(v) != "first" {
		t.Fatalf("Get = %q, want the first write", v)
	}
}

// TestReplayLogNilSafe: a nil log (replay disabled) caches nothing and
// errors nowhere.
func TestReplayLogNilSafe(t *testing.T) {
	var l *ReplayLog
	if _, ok := l.Get("k"); ok {
		t.Fatal("nil log returned a hit")
	}
	l.Put("k", []byte("v"))
	if err := l.MaybeFlush(); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 0 {
		t.Fatal("nil log has length")
	}
}

// TestReplayLogMaybeFlushBatches: Put is pure in-memory; MaybeFlush is a
// no-op below the batching threshold and persists everything at it, so a
// crashed process still loses at most one batch's tail while no reader
// ever waits on the disk behind l.mu (the PR-8 stall class).
func TestReplayLogMaybeFlushBatches(t *testing.T) {
	path := tmpLog(t)
	l := openLog(t, path)
	for i := 0; i < replayFlushEvery-1; i++ {
		l.Put(fmt.Sprintf("k%04d", i), []byte("v"))
	}
	if err := l.MaybeFlush(); err != nil {
		t.Fatal(err)
	}
	if n := len(fileBytes(t, path)); n != 0 {
		t.Fatalf("MaybeFlush wrote %d bytes below the batching threshold", n)
	}
	l.Put("last", []byte("v"))
	if err := l.MaybeFlush(); err != nil {
		t.Fatal(err)
	}
	re := openLog(t, path)
	if re.Len() != replayFlushEvery {
		t.Fatalf("flushed log has %d records, want %d", re.Len(), replayFlushEvery)
	}
	// Nothing new since the durable flush: the next flushes are no-ops.
	size := len(fileBytes(t, path))
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := len(fileBytes(t, path)); n != size {
		t.Fatalf("Flush of a clean log changed its size from %d to %d", size, n)
	}
}

// failingLog fails its next `fails` appends, then hands them to the real
// log.
type failingLog struct {
	recordLog
	fails int
}

func (f *failingLog) Append(payloads ...[]byte) error {
	if f.fails > 0 {
		f.fails--
		return errors.New("injected append failure")
	}
	return f.recordLog.Append(payloads...)
}

// TestReplayLogFailedFlushStaysDirty: a failed write leaves the batch
// pending, so the next flush persists it instead of silently dropping it.
func TestReplayLogFailedFlushStaysDirty(t *testing.T) {
	path := tmpLog(t)
	l := openLog(t, path)
	l.log = &failingLog{recordLog: l.log, fails: 1}
	l.Put("k", []byte("v"))
	if err := l.Flush(); err == nil {
		t.Fatal("Flush through a failing append succeeded")
	}
	l.Put("k2", []byte("v2"))
	if err := l.Flush(); err != nil {
		t.Fatalf("retried Flush: %v", err)
	}
	re := openLog(t, path)
	if re.Len() != 2 {
		t.Fatalf("retried flush persisted %d records, want 2", re.Len())
	}
}

// TestReplayLogAppendOnly: every flush appends only what was Put since the
// last one — the previous file bytes are a strict prefix of the new ones,
// so bytes written over a run equal the log's final size.
func TestReplayLogAppendOnly(t *testing.T) {
	path := tmpLog(t)
	l := openLog(t, path)
	prev := fileBytes(t, path)
	for batch := 0; batch < 4; batch++ {
		for i := 0; i < 3; i++ {
			l.Put(fmt.Sprintf("b%d-q%d", batch, i), []byte(fmt.Sprintf(`{"batch":%d}`, batch)))
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		cur := fileBytes(t, path)
		if len(cur) <= len(prev) || string(cur[:len(prev)]) != string(prev) {
			t.Fatalf("flush %d rewrote the log instead of appending to it", batch)
		}
		prev = cur
	}
}

// TestReplayLogConcurrentFlush: Puts racing flushes from several
// goroutines all reach disk exactly once — a flush drops only the batch it
// appended, never a Put that arrived during the append.
func TestReplayLogConcurrentFlush(t *testing.T) {
	path := tmpLog(t)
	l := openLog(t, path)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				l.Put(fmt.Sprintf("g%d-q%d", g, i), []byte("v"))
				if err := l.MaybeFlush(); err != nil {
					t.Error(err)
					return
				}
				if i%97 == 0 {
					if err := l.Flush(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(fileBytes(t, path)), "\n"); n != 4*300 {
		t.Fatalf("log holds %d records, want %d", n, 4*300)
	}
	if re := openLog(t, path); re.Len() != 4*300 {
		t.Fatalf("reopened log has %d replies, want %d", re.Len(), 4*300)
	}
}

// TestReplayLogRefusesDamage: corruption is loud — a damaged log fails the
// open instead of silently serving wrong replies.
func TestReplayLogRefusesDamage(t *testing.T) {
	path := tmpLog(t)
	l := openLog(t, path)
	l.Put("key", []byte("value"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	good := fileBytes(t, path)
	damage := map[string][]byte{
		"flipped byte": func() []byte {
			d := append([]byte(nil), good...)
			d[len(d)/2] ^= 0xff
			return d
		}(),
		// CRC-valid framing around a payload that is not a replay record.
		"undecodable record": []byte(fmt.Sprintf("%08x [1]\n", crc32.Checksum([]byte("[1]"), crc32.MakeTable(crc32.Castagnoli)))),
	}
	for name, data := range damage {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenReplayLog(path)
		if err == nil {
			t.Errorf("%s: OpenReplayLog accepted a damaged file", name)
			continue
		}
		if _, ok := err.(*LogError); !ok {
			t.Errorf("%s: error is %T, want *LogError", name, err)
		}
	}
}

// TestReplayLogTornTailDropped: a crash mid-flush leaves a torn final
// line, which was never durable. Opening drops it, keeps every complete
// record before it, and the log appends cleanly afterwards.
func TestReplayLogTornTailDropped(t *testing.T) {
	path := tmpLog(t)
	l := openLog(t, path)
	l.Put("key1", []byte("value1"))
	l.Put("key2", []byte("value2"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	good := fileBytes(t, path)
	torn := map[string]struct {
		data []byte
		keep int
	}{
		"truncated":      {good[:len(good)-3], 1},
		"trailing bytes": {append(append([]byte(nil), good...), "extra"...), 2},
		"too short":      {good[:6], 0},
	}
	for name, tc := range torn {
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenReplayLog(path)
		if err != nil {
			t.Fatalf("%s: OpenReplayLog: %v", name, err)
		}
		if l.Len() != tc.keep {
			t.Fatalf("%s: opened with %d records, want %d", name, l.Len(), tc.keep)
		}
		l.Put("after", []byte("crash"))
		if err := l.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
		re := openLog(t, path)
		if v, ok := re.Get("after"); re.Len() != tc.keep+1 || !ok || string(v) != "crash" {
			t.Fatalf("%s: after recovery the log holds %d records (Get(after) = %q, %v)", name, re.Len(), v, ok)
		}
	}
}

// TestReplayLogRefusesMBRLFile: a replay log left by the retired MBRL
// format (magic, version, length-prefixed records, CRC-32 trailer) fails
// the open loudly and is left untouched — never misread as an empty log or
// truncated away as a torn tail.
func TestReplayLogRefusesMBRLFile(t *testing.T) {
	mbrl := func(records ...string) []byte {
		var b []byte
		b = append(b, "MBRL"...)
		b = binary.LittleEndian.AppendUint32(b, 1)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(records)/2))
		for _, r := range records {
			b = binary.LittleEndian.AppendUint32(b, uint32(len(r)))
			b = append(b, r...)
		}
		return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	}
	for name, data := range map[string][]byte{
		"no newline byte": mbrl("key", "value"),
		"newline bytes":   mbrl(strings.Repeat("k", 10), `{"mem":{"lat":1}}`),
	} {
		path := tmpLog(t)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenReplayLog(path)
		var le *LogError
		if !errors.As(err, &le) {
			t.Fatalf("%s: OpenReplayLog(MBRL file) = %v, want *LogError", name, err)
		}
		if got := fileBytes(t, path); string(got) != string(data) {
			t.Fatalf("%s: opening modified the MBRL file", name)
		}
	}
}
