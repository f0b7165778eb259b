package checkpoint

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mobilebench/internal/profiler"
	"mobilebench/internal/sim"
)

// testResult builds a small but realistic sim.Result: a few aligned series
// plus populated aggregates, enough to exercise every wire field.
func testResult(name string, scale float64) *sim.Result {
	p := profiler.New(0.1)
	for tick := 0; tick < 7; tick++ {
		p.Sample("cpu.ipc", scale*float64(tick))
		p.Sample("gpu.load", scale/(1+float64(tick)))
		p.Sample("mem.used_frac", 0.25*scale)
	}
	tr, err := p.Trace()
	if err != nil {
		panic(err)
	}
	res := &sim.Result{Workload: name, Trace: tr}
	res.Agg.Name = name
	res.Agg.RuntimeSec = 42.5 * scale
	res.Agg.IPC = 1.25 * scale
	res.Agg.InstrCount = 9e9 * scale
	res.Agg.CacheMPKI = 31.5 * scale
	res.Agg.BranchMPKI = 7.5 * scale
	res.Agg.AvgCPULoad = 0.31 * scale
	res.Agg.ClusterLoad = [3]float64{0.1 * scale, 0.2 * scale, 0.3 * scale}
	res.Agg.AvgPowerW = 3.5 * scale
	res.Agg.EnergyJ = 120 * scale
	res.Agg.PeakCPUTempC = 55 * scale
	return res
}

func testSnapshot() *Snapshot {
	return &Snapshot{
		Fingerprint: 0xfeedbeefcafe,
		Records: []RunRecord{
			{
				Unit: "alpha", Run: 0, NextAttempt: 3, Attempts: 3,
				RepairedSamples: 2, OutlierReruns: 1,
				Faults: []string{"attempt 0: injected crash", "attempt 1: injected abort"},
				Result: testResult("alpha", 1.0),
			},
			{
				Unit: "alpha", Run: 1, NextAttempt: 1, Attempts: 1,
				Result: testResult("alpha", 1.1),
			},
			{
				Unit: "beta", Run: 0, NextAttempt: 4, Attempts: 4,
				Faults: []string{"attempt 3: injected panic"},
				Failed: true, FailedAttempt: 3, FailedCause: "fault: injected panic in beta run 0 attempt 3",
			},
		},
	}
}

// encodeLog frames every record of s as a collection-log line: the bytes a
// collection appending them in order leaves on disk.
func encodeLog(s *Snapshot) []byte {
	var out []byte
	for i := range s.Records {
		out = frameLine(out, EncodeRecord(s.Fingerprint, &s.Records[i]))
	}
	return out
}

// writeLog appends the records of s to a fresh log at path.
func writeLog(t *testing.T, path string, s *Snapshot) {
	t.Helper()
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := range s.Records {
		if err := l.Append(EncodeRecord(s.Fingerprint, &s.Records[i])); err != nil {
			t.Fatal(err)
		}
	}
}

// readSnapshot is Load on the file's bytes.
func readSnapshot(path string, data []byte, wantFingerprint uint64) (*Snapshot, error) {
	payloads, _, err := parseLog(path, data)
	return decodeLog(path, payloads, err, wantFingerprint)
}

// frameLine frames one payload as a log line, as Log.Append writes it.
func frameLine(out, payload []byte) []byte {
	return fmt.Appendf(out, "%08x %s\n", crc32.Checksum(payload, crcTable), payload)
}

// rawRecord is one record's payload before base64: version, fingerprint,
// record.
func rawRecord(fingerprint uint64, r *RunRecord) []byte {
	raw, err := base64.StdEncoding.DecodeString(string(EncodeRecord(fingerprint, r)))
	if err != nil {
		panic(err)
	}
	return raw
}

// frameRaw frames raw payload bytes as one log line.
func frameRaw(raw []byte) []byte {
	return frameLine(nil, base64.StdEncoding.AppendEncode(nil, raw))
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	snap := testSnapshot()
	got, err := readSnapshot("mem", encodeLog(snap), snap.Fingerprint)
	if err != nil {
		t.Fatalf("readSnapshot: %v", err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("round-tripped snapshot differs:\n got %+v\nwant %+v", got, snap)
	}
	// Bit-exactness of float payloads, including values with no short
	// decimal form.
	odd := testSnapshot()
	odd.Records[0].Result.Agg.IPC = math.Nextafter(1, 2)
	odd.Records[0].Result.Trace.Series("cpu.ipc").Values[3] = 1e-301
	got2, err := readSnapshot("mem", encodeLog(odd), odd.Fingerprint)
	if err != nil {
		t.Fatalf("readSnapshot: %v", err)
	}
	if got2.Records[0].Result.Agg.IPC != odd.Records[0].Result.Agg.IPC ||
		got2.Records[0].Result.Trace.Series("cpu.ipc").Values[3] != 1e-301 {
		t.Fatal("float payload not bit-exact after round trip")
	}
}

// TestSaveLoad: records appended through Log read back through Load and
// Resume, and a resumed log keeps appending to the same file.
func TestSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	snap := testSnapshot()
	writeLog(t, path, snap)
	got, err := Load(path, snap.Fingerprint)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatal("loaded snapshot differs from the appended records")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.ckpt"), 1); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want fs.ErrNotExist", err)
	}

	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	l, resumed, err := Resume(path, snap.Fingerprint)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if !reflect.DeepEqual(resumed, snap) {
		t.Fatal("resumed snapshot differs from the appended records")
	}
	extra := RunRecord{Unit: "gamma", Run: 0, Attempts: 1, Result: testResult("gamma", 2)}
	if err := l.Append(EncodeRecord(snap.Fingerprint, &extra)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Fatal("a later record replaced the checkpoint file instead of appending to it")
	}
	got, err = Load(path, snap.Fingerprint)
	if err != nil || len(got.Records) != len(snap.Records)+1 || got.Find("gamma", 0) == nil {
		t.Fatalf("appended record not read back: %v, %+v", err, got)
	}

	// A missing file resumes as an empty log.
	l, empty, err := Resume(filepath.Join(t.TempDir(), "fresh.ckpt"), 9)
	if err != nil || len(empty.Records) != 0 || empty.Fingerprint != 9 {
		t.Fatalf("Resume(missing) = %+v, %v; want an empty snapshot", empty, err)
	}
	_ = l.Close()
}

func TestDecodeDetectsCorruption(t *testing.T) {
	snap := testSnapshot()
	data := encodeLog(snap)

	// A single-byte flip anywhere in an acked line — CRC digits or
	// payload — must be caught. (The final newline is left alone: flipping
	// it turns the last line into a torn append, which readers drop.)
	for _, off := range []int{0, 5, 17, len(data) / 2, len(data) - 5} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x40
		_, err := readSnapshot("bad", bad, snap.Fingerprint)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("flip at %d: err = %v, want *CorruptError", off, err)
		}
	}
	// A line whose CRC verifies but whose payload does not decode: bad
	// base64, a record truncated anywhere, or trailing bytes.
	raw := rawRecord(snap.Fingerprint, &snap.Records[0])
	bad := [][]byte{frameLine(nil, []byte("not base64!"))}
	for _, n := range []int{0, 3, 11, 40, len(raw) - 1} {
		bad = append(bad, frameRaw(raw[:n]))
	}
	bad = append(bad, frameRaw(append(raw, 0)))
	for i, data := range bad {
		_, err := readSnapshot("short", data, snap.Fingerprint)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("case %d: err = %v, want *CorruptError", i, err)
		}
	}
}

func TestDecodeDetectsVersionSkew(t *testing.T) {
	snap := testSnapshot()
	raw := rawRecord(snap.Fingerprint, &snap.Records[0])
	binary.LittleEndian.PutUint32(raw[0:4], Version+7)
	_, err := readSnapshot("skew", frameRaw(raw), 0)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want *VersionError", err)
	}
	if ve.Got != Version+7 || ve.Want != Version {
		t.Fatalf("VersionError = %+v", ve)
	}
}

// TestDecodeDetectsBadMagic: a whole-file MBCP snapshot, the format
// collection checkpoints had before they became record logs, is not a log.
// Load and Resume refuse it with *CorruptError and leave it byte-identical,
// whether or not its bytes happen to hold a newline.
func TestDecodeDetectsBadMagic(t *testing.T) {
	dir := t.TempDir()
	for i, snapshot := range [][]byte{
		[]byte("MBCP\x01\x00\x00\x00\xfe\xca\xef\xbe\xed\xfe\x00\x00\x00\x00\x00\x00\x11\x22\x33\x44"),
		[]byte("MBCP\x01\x00\x00\x00\x0a\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\n\x00\x11\x22"),
	} {
		path := filepath.Join(dir, fmt.Sprintf("old%d.ckpt", i))
		if err := os.WriteFile(path, snapshot, 0o644); err != nil {
			t.Fatal(err)
		}
		var ce *CorruptError
		if _, err := Load(path, 0); !errors.As(err, &ce) {
			t.Fatalf("Load(MBCP %d): err = %v, want *CorruptError", i, err)
		}
		if _, _, err := Resume(path, 0); !errors.As(err, &ce) {
			t.Fatalf("Resume(MBCP %d): err = %v, want *CorruptError", i, err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, snapshot) {
			t.Fatalf("MBCP %d: refusing the file modified it: %q, %v", i, got, err)
		}
	}
}

func TestDecodeDetectsStaleFingerprint(t *testing.T) {
	snap := testSnapshot()
	data := encodeLog(snap)
	_, err := readSnapshot("stale", data, snap.Fingerprint+1)
	var me *MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("err = %v, want *MismatchError", err)
	}
	if me.Got != snap.Fingerprint || me.Want != snap.Fingerprint+1 {
		t.Fatalf("MismatchError = %+v", me)
	}
	// Fingerprint 0 means "don't check" (inspection tooling)...
	if _, err := readSnapshot("any", data, 0); err != nil {
		t.Fatalf("fingerprint 0 should skip the check, got %v", err)
	}
	// ...but the records of one log must still agree with each other.
	other := RunRecord{Unit: "gamma", Run: 0, Attempts: 1, Result: testResult("gamma", 1)}
	mixed := frameLine(data, EncodeRecord(snap.Fingerprint+1, &other))
	if _, err := readSnapshot("mixed", mixed, 0); !errors.As(err, &me) {
		t.Fatalf("mixed fingerprints: err = %v, want *MismatchError", err)
	}
}

func TestWriteFileAtomicReplacement(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := WriteFile(path, []byte("first"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	// A failing streamed write must leave the previous content untouched
	// and no temp litter behind.
	err := WriteTo(path, func(w io.Writer) error {
		_, _ = w.Write([]byte("partial garbage"))
		return fmt.Errorf("simulated mid-write crash")
	})
	if err == nil {
		t.Fatal("WriteTo should surface the write error")
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "first" {
		t.Fatalf("after failed replace: content %q err %v, want untouched %q", got, err, "first")
	}
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp file leaked: %v", ents)
	}
	// A successful replace takes effect.
	if err := WriteTo(path, func(w io.Writer) error {
		_, err := w.Write([]byte("second"))
		return err
	}); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second" {
		t.Fatalf("content = %q, want %q", got, "second")
	}
}

// TestSyncDirReportsErrors: a directory sync that cannot happen is an
// error, not a silent best effort — rename durability is checked.
func TestSyncDirReportsErrors(t *testing.T) {
	dir := t.TempDir()
	if err := syncDir(dir); err != nil {
		t.Fatalf("syncDir on a live directory: %v", err)
	}
	missing := filepath.Join(dir, "gone")
	if err := syncDir(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("syncDir(%s) = %v, want a not-exist error", missing, err)
	}
}

// TestLoadLastRecordWins: a (unit, run) appended more than once (an
// outlier re-run, a job re-dispatched after a worker death) reads back as
// its last record, in the position of its first.
func TestLoadLastRecordWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.ckpt")
	writeLog(t, path, &Snapshot{Fingerprint: 77, Records: []RunRecord{
		{Unit: "a", Run: 0, Attempts: 1, Result: testResult("a", 1)},
		{Unit: "a", Run: 1, Attempts: 1, Result: testResult("a", 2)},
		{Unit: "a", Run: 0, Attempts: 2, Result: testResult("a", 3)},
	}})
	snap, err := Load(path, 77)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Records) != 2 {
		t.Fatalf("read %d records, want 2", len(snap.Records))
	}
	if rec := snap.Records[0]; rec.Unit != "a" || rec.Run != 0 || rec.Attempts != 2 ||
		!reflect.DeepEqual(rec.Result, testResult("a", 3)) {
		t.Fatalf("first record = %+v, want the later (a, 0) record in its place", rec)
	}
}
