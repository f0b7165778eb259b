package checkpoint

import (
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

func TestEncodeDecodeRoundTrip(t *testing.T) {
	snap := testSnapshot()
	data := Encode(snap)
	got, err := Decode("mem", data, snap.Fingerprint)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("round-tripped snapshot differs:\n got %+v\nwant %+v", got, snap)
	}
	// Bit-exactness of float payloads, including values with no short
	// decimal form.
	odd := testSnapshot()
	odd.Records[0].Result.Agg.IPC = math.Nextafter(1, 2)
	odd.Records[0].Result.Trace.Series("cpu.ipc").Values[3] = 1e-301
	got2, err := Decode("mem", Encode(odd), odd.Fingerprint)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got2.Records[0].Result.Agg.IPC != odd.Records[0].Result.Agg.IPC ||
		got2.Records[0].Result.Trace.Series("cpu.ipc").Values[3] != 1e-301 {
		t.Fatal("float payload not bit-exact after round trip")
	}
}

func TestSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	snap := testSnapshot()
	if err := Save(path, snap); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path, snap.Fingerprint)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatal("loaded snapshot differs from saved one")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.ckpt"), 1); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want fs.ErrNotExist", err)
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	snap := testSnapshot()
	data := Encode(snap)

	// Every single-byte flip must be caught by the checksum.
	for _, off := range []int{0, 5, 17, len(data) / 2, len(data) - 5} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x40
		_, err := Decode("bad", bad, snap.Fingerprint)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("flip at %d: err = %v, want *CorruptError", off, err)
		}
	}
	// Truncation anywhere must be caught too.
	for _, n := range []int{0, 3, 11, len(data) - 1} {
		_, err := Decode("short", data[:n], snap.Fingerprint)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("truncate to %d: err = %v, want *CorruptError", n, err)
		}
	}
}

// reseal recomputes the trailing checksum so structural checks past it can
// be exercised in isolation.
func reseal(data []byte) []byte {
	body := data[:len(data)-4]
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.ChecksumIEEE(body))
	return append(append([]byte(nil), body...), tail[:]...)
}

func TestDecodeDetectsVersionSkew(t *testing.T) {
	data := Encode(testSnapshot())
	binary.LittleEndian.PutUint32(data[4:8], Version+7)
	_, err := Decode("skew", reseal(data), 0)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want *VersionError", err)
	}
	if ve.Got != Version+7 || ve.Want != Version {
		t.Fatalf("VersionError = %+v", ve)
	}
}

func TestDecodeDetectsBadMagic(t *testing.T) {
	data := Encode(testSnapshot())
	copy(data[:4], "NOPE")
	_, err := Decode("magic", reseal(data), 0)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptError", err)
	}
}

func TestDecodeDetectsStaleFingerprint(t *testing.T) {
	snap := testSnapshot()
	data := Encode(snap)
	_, err := Decode("stale", data, snap.Fingerprint+1)
	var me *MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("err = %v, want *MismatchError", err)
	}
	if me.Got != snap.Fingerprint || me.Want != snap.Fingerprint+1 {
		t.Fatalf("MismatchError = %+v", me)
	}
	// Fingerprint 0 means "don't check" (inspection tooling).
	if _, err := Decode("any", data, 0); err != nil {
		t.Fatalf("fingerprint 0 should skip the check, got %v", err)
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

func TestWriterUpsertsAndPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.ckpt")
	w := NewWriter(path, 77, nil)
	if err := w.Put(RunRecord{Unit: "a", Run: 0, Attempts: 1, Result: testResult("a", 1)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Put(RunRecord{Unit: "a", Run: 1, Attempts: 1, Result: testResult("a", 2)}); err != nil {
		t.Fatal(err)
	}
	// Upsert: a re-run replaces its record instead of duplicating it.
	if err := w.Put(RunRecord{Unit: "a", Run: 0, Attempts: 2, Result: testResult("a", 3)}); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 2 {
		t.Fatalf("Len = %d, want 2", w.Len())
	}
	snap, err := Load(path, 77)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Records) != 2 {
		t.Fatalf("persisted %d records, want 2", len(snap.Records))
	}
	if rec := snap.Find("a", 0); rec == nil || rec.Attempts != 2 {
		t.Fatalf("upserted record not persisted: %+v", rec)
	}

	// A writer seeded with restored records preserves them on the next Put.
	w2 := NewWriter(path, 77, snap.Records)
	if err := w2.Put(RunRecord{Unit: "b", Run: 0, Attempts: 1, Result: testResult("b", 1)}); err != nil {
		t.Fatal(err)
	}
	snap2, err := Load(path, 77)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap2.Records) != 3 || snap2.Find("a", 1) == nil {
		t.Fatalf("restored records dropped on rewrite: %+v", snap2.Records)
	}
}
