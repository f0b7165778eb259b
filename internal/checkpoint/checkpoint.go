// Package checkpoint provides crash-safe persistence for long collections.
//
// A Snapshot records every completed (unit, run) of a collection — the
// simulation result, the attempt counter and the run's provenance — in a
// versioned, CRC-checksummed binary file. The file is replaced atomically
// (write to a temp file in the same directory, fsync, rename, fsync the
// directory) after every completed pair, so a killed process always finds
// either the previous consistent snapshot or the new one, never a torn
// write. A resumed collection restores the completed pairs bit-for-bit and
// re-runs only the remainder; because the simulator derives every value
// from (seed, unit, run, attempt), the resumed dataset is identical to an
// uninterrupted one.
//
// Corrupt or mismatched snapshots never poison a dataset silently: Load
// verifies the checksum (*CorruptError), the schema version
// (*VersionError) and the collection-options fingerprint
// (*MismatchError) before a single record is trusted.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"mobilebench/internal/profiler"
	"mobilebench/internal/sim"
	"mobilebench/internal/trace"
)

// Format constants. Version is bumped whenever the record layout changes
// (including any change to the serialized sim.Aggregates field set);
// snapshots from other versions are rejected with a *VersionError rather
// than decoded on luck.
const (
	// Version is the snapshot schema version this package writes.
	Version uint32 = 1
)

// magic identifies a mobilebench checkpoint file.
var magic = [4]byte{'M', 'B', 'C', 'P'}

// CorruptError reports a snapshot that failed structural verification:
// a bad magic number, a checksum mismatch, a truncated file or an
// undecodable record. The snapshot must be discarded.
type CorruptError struct {
	Path   string
	Reason string
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("checkpoint: %s is corrupt: %s", e.Path, e.Reason)
}

// VersionError reports a snapshot written by an incompatible schema
// version.
type VersionError struct {
	Path      string
	Got, Want uint32
}

// Error implements error.
func (e *VersionError) Error() string {
	return fmt.Sprintf("checkpoint: %s has schema version %d, want %d", e.Path, e.Got, e.Want)
}

// MismatchError reports a snapshot whose options fingerprint does not
// match the resuming collection — the snapshot is internally consistent
// but stale: it belongs to a collection with different units, seed,
// resilience policy or simulator configuration, and restoring it would
// silently poison the figures.
type MismatchError struct {
	Path      string
	Got, Want uint64
}

// Error implements error.
func (e *MismatchError) Error() string {
	return fmt.Sprintf("checkpoint: %s was written for options fingerprint %#x, want %#x (stale snapshot)",
		e.Path, e.Got, e.Want)
}

// RunRecord is one completed (unit, run): either a valid result or a
// permanent failure, plus everything needed to restore the run's collection
// state bit-for-bit (attempt counter and provenance).
type RunRecord struct {
	// Unit is the benchmark name; Run the repetition index.
	Unit string
	Run  int
	// NextAttempt restores the monotonic attempt counter, so outlier
	// re-runs after a resume draw the same fault-injection decisions an
	// uninterrupted collection would.
	NextAttempt int
	// Attempts, RepairedSamples, OutlierReruns and Faults mirror the
	// run's provenance record.
	Attempts        int
	RepairedSamples int
	OutlierReruns   int
	Faults          []string
	// Failed marks a permanently failed run; FailedAttempt and
	// FailedCause preserve its error for provenance.
	Failed        bool
	FailedAttempt int
	FailedCause   string
	// Result is the run's simulation result (nil when Failed).
	Result *sim.Result
}

// Snapshot is the full persisted state of one collection.
type Snapshot struct {
	// Fingerprint binds the snapshot to the collection options that
	// produced it.
	Fingerprint uint64
	// Records holds completed (unit, run) pairs in completion order.
	Records []RunRecord
}

// Find returns the record for (unit, run), or nil.
func (s *Snapshot) Find(unit string, run int) *RunRecord {
	for i := range s.Records {
		if s.Records[i].Unit == unit && s.Records[i].Run == run {
			return &s.Records[i]
		}
	}
	return nil
}

// Encode serializes the snapshot: magic, version, fingerprint, records,
// and a trailing CRC-32 over everything before it.
func Encode(s *Snapshot) []byte {
	var b bytes.Buffer
	b.Write(magic[:])
	putU32(&b, Version)
	putU64(&b, s.Fingerprint)
	putU32(&b, uint32(len(s.Records)))
	for i := range s.Records {
		encodeRecord(&b, &s.Records[i])
	}
	putU32(&b, crc32.ChecksumIEEE(b.Bytes()))
	return b.Bytes()
}

func encodeRecord(b *bytes.Buffer, r *RunRecord) {
	putString(b, r.Unit)
	putU32(b, uint32(r.Run))
	putU32(b, uint32(r.NextAttempt))
	putU32(b, uint32(r.Attempts))
	putU32(b, uint32(r.RepairedSamples))
	putU32(b, uint32(r.OutlierReruns))
	putU32(b, uint32(len(r.Faults)))
	for _, f := range r.Faults {
		putString(b, f)
	}
	if r.Failed {
		b.WriteByte(1)
		putU32(b, uint32(r.FailedAttempt))
		putString(b, r.FailedCause)
		return
	}
	b.WriteByte(0)
	encodeResult(b, r.Result)
}

// aggFields flattens the serialized sim.Aggregates scalars in their fixed
// wire order. Adding or reordering fields requires a Version bump.
func aggFields(a *sim.Aggregates) []*float64 {
	return []*float64{
		&a.RuntimeSec, &a.InstrCount, &a.IPC, &a.CacheMPKI, &a.BranchMPKI,
		&a.AvgCPULoad, &a.AvgGPULoad, &a.AvgShadersBusy, &a.AvgGPUBusBusy,
		&a.AvgAIELoad, &a.AvgUsedMemFrac, &a.AvgUsedMemMB, &a.PeakUsedMemMB,
		&a.ClusterLoad[0], &a.ClusterLoad[1], &a.ClusterLoad[2],
		&a.AvgPowerW, &a.EnergyJ, &a.PeakCPUTempC,
	}
}

func encodeResult(b *bytes.Buffer, r *sim.Result) {
	putString(b, r.Workload)
	putString(b, r.Agg.Name)
	for _, f := range aggFields(&r.Agg) {
		putF64(b, *f)
	}
	t := r.Trace
	putF64(b, t.DT)
	putU32(b, uint32(t.Samples))
	names := t.Metrics()
	putU32(b, uint32(len(names)))
	for _, name := range names {
		s := t.Series(name)
		putString(b, name)
		putU32(b, uint32(len(s.Values)))
		for _, v := range s.Values {
			putF64(b, v)
		}
	}
}

// Little-endian write helpers; the mirrored read side lives on decoder.
func putU32(b *bytes.Buffer, v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	b.Write(buf[:])
}

func putU64(b *bytes.Buffer, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	b.Write(buf[:])
}

func putF64(b *bytes.Buffer, v float64) { putU64(b, math.Float64bits(v)) }

func putString(b *bytes.Buffer, s string) {
	putU32(b, uint32(len(s)))
	b.WriteString(s)
}

// Decode parses and verifies snapshot bytes. path is used only for error
// messages. A wantFingerprint of 0 skips the fingerprint check (used by
// inspection tooling); collections always pass their real fingerprint.
func Decode(path string, data []byte, wantFingerprint uint64) (*Snapshot, error) {
	if len(data) < len(magic)+4+8+4+4 {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("only %d bytes (truncated)", len(data))}
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.ChecksumIEEE(body); got != want {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("checksum %#x does not match computed %#x", got, want)}
	}
	d := &decoder{path: path, data: body}
	var m [4]byte
	copy(m[:], d.bytes(4))
	if m != magic {
		return nil, &CorruptError{Path: path, Reason: "bad magic number (not a mobilebench checkpoint)"}
	}
	if v := d.u32(); v != Version {
		return nil, &VersionError{Path: path, Got: v, Want: Version}
	}
	s := &Snapshot{Fingerprint: d.u64()}
	if wantFingerprint != 0 && s.Fingerprint != wantFingerprint {
		return nil, &MismatchError{Path: path, Got: s.Fingerprint, Want: wantFingerprint}
	}
	n := int(d.u32())
	for i := 0; i < n && d.err == nil; i++ {
		rec, err := d.record()
		if err != nil {
			return nil, err
		}
		s.Records = append(s.Records, rec)
	}
	if d.err != nil {
		return nil, &CorruptError{Path: path, Reason: d.err.Error()}
	}
	if len(d.data) != d.off {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("%d trailing bytes after the last record", len(d.data)-d.off)}
	}
	return s, nil
}

type decoder struct {
	path string
	data []byte
	off  int
	err  error
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.data) {
		d.err = fmt.Errorf("record truncated at offset %d", d.off)
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u32() uint32 {
	b := d.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) string() string {
	n := int(d.u32())
	if n > len(d.data)-d.off {
		d.err = fmt.Errorf("string of %d bytes overruns the file at offset %d", n, d.off)
		return ""
	}
	return string(d.bytes(n))
}

func (d *decoder) record() (RunRecord, error) {
	var r RunRecord
	r.Unit = d.string()
	r.Run = int(d.u32())
	r.NextAttempt = int(d.u32())
	r.Attempts = int(d.u32())
	r.RepairedSamples = int(d.u32())
	r.OutlierReruns = int(d.u32())
	nf := int(d.u32())
	for i := 0; i < nf && d.err == nil; i++ {
		r.Faults = append(r.Faults, d.string())
	}
	flag := d.bytes(1)
	if d.err != nil {
		return r, nil
	}
	if flag[0] == 1 {
		r.Failed = true
		r.FailedAttempt = int(d.u32())
		r.FailedCause = d.string()
		return r, nil
	}
	res := &sim.Result{}
	res.Workload = d.string()
	res.Agg.Name = d.string()
	for _, f := range aggFields(&res.Agg) {
		*f = d.f64()
	}
	dt := d.f64()
	samples := int(d.u32())
	nseries := int(d.u32())
	// Cap the pre-allocation by what the remaining bytes could possibly
	// encode (a series costs ≥ 8 bytes), so a corrupt count field cannot
	// demand gigabytes before the truncation check fires.
	series := make([]*trace.Series, 0, min(nseries, len(d.data)/8))
	for i := 0; i < nseries && d.err == nil; i++ {
		name := d.string()
		nv := int(d.u32())
		s := &trace.Series{Name: name, DT: dt}
		if d.err == nil && nv >= 0 {
			s.Values = make([]float64, 0, min(nv, len(d.data)/8))
			for j := 0; j < nv && d.err == nil; j++ {
				s.Values = append(s.Values, d.f64())
			}
		}
		series = append(series, s)
	}
	if d.err != nil {
		return r, nil
	}
	tr, err := profiler.BuildTrace(dt, samples, series)
	if err != nil {
		return r, &CorruptError{Path: d.path, Reason: fmt.Sprintf("record %s run %d: %v", r.Unit, r.Run, err)}
	}
	res.Trace = tr
	r.Result = res
	return r, nil
}

// Save atomically replaces path with the encoded snapshot.
func Save(path string, s *Snapshot) error {
	return WriteFile(path, Encode(s), 0o644)
}

// Load reads and verifies the snapshot at path. It returns the raw
// os.ReadFile error (satisfying errors.Is(err, fs.ErrNotExist)) when the
// file is missing, and the package's typed errors on corruption, version
// skew or a fingerprint mismatch.
func Load(path string, wantFingerprint uint64) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(path, data, wantFingerprint)
}

// AtomicFile is a file whose content becomes visible at the destination
// path only on Commit: writes go to a temp file in the same directory,
// Commit fsyncs, renames over the destination and fsyncs the directory.
// A crash before Commit leaves the previous file untouched. It is the
// write path for every durable artifact in the repository (checkpoints,
// CLI -o outputs, served job state).
type AtomicFile struct {
	f         *os.File
	path      string
	committed bool
}

// NewAtomicFile starts an atomic replacement of path.
func NewAtomicFile(path string) (*AtomicFile, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	return &AtomicFile{f: f, path: path}, nil
}

// Write implements io.Writer.
func (a *AtomicFile) Write(p []byte) (int, error) { return a.f.Write(p) }

// Commit flushes the temp file to stable storage, renames it over the
// destination and syncs the directory. A directory-sync error arrives after
// the rename: the new content is in place but not known to survive a crash.
// After Commit, Abort is a no-op.
func (a *AtomicFile) Commit() error {
	if err := a.f.Sync(); err != nil {
		a.discard()
		return err
	}
	if err := a.f.Close(); err != nil {
		_ = os.Remove(a.f.Name())
		return err
	}
	if err := os.Rename(a.f.Name(), a.path); err != nil {
		_ = os.Remove(a.f.Name())
		return err
	}
	a.committed = true
	return syncDir(filepath.Dir(a.path))
}

// Abort discards the temp file; safe to defer alongside Commit.
func (a *AtomicFile) Abort() {
	if a.committed {
		return
	}
	a.discard()
}

func (a *AtomicFile) discard() {
	_ = a.f.Close()
	_ = os.Remove(a.f.Name())
}

// syncDir makes a rename or file creation in dir durable. A failure means
// the entry may not survive a crash, so it is returned, not swallowed.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteFile atomically replaces path with data (temp + fsync + rename),
// so a crash mid-write can never leave a truncated file at path.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	a, err := NewAtomicFile(path)
	if err != nil {
		return err
	}
	defer a.Abort()
	if err := a.f.Chmod(perm); err != nil {
		return err
	}
	if _, err := a.Write(data); err != nil {
		return err
	}
	return a.Commit()
}

// WriteTo atomically replaces path with whatever write produces, for
// streamed outputs (reports, CSV dumps) that are built incrementally.
func WriteTo(path string, write func(w io.Writer) error) error {
	a, err := NewAtomicFile(path)
	if err != nil {
		return err
	}
	defer a.Abort()
	if err := write(a); err != nil {
		return err
	}
	return a.Commit()
}

// Writer maintains a snapshot on disk across concurrent record updates:
// Put upserts a (unit, run) record and atomically rewrites the file, so
// after every completed pair the on-disk snapshot is complete and
// verifiable. Safe for concurrent use by the collection worker pool.
type Writer struct {
	mu   sync.Mutex
	path string
	snap Snapshot
}

// NewWriter creates a writer for path. existing seeds the snapshot with
// records restored from a previous process (they are preserved in the
// rewritten file so a resumed collection keeps checkpointing from where
// it left off).
func NewWriter(path string, fingerprint uint64, existing []RunRecord) *Writer {
	w := &Writer{path: path}
	w.snap.Fingerprint = fingerprint
	w.snap.Records = append(w.snap.Records, existing...)
	return w
}

// Put upserts the record and persists the snapshot atomically.
func (w *Writer) Put(rec RunRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if old := w.snap.Find(rec.Unit, rec.Run); old != nil {
		*old = rec
	} else {
		w.snap.Records = append(w.snap.Records, rec)
	}
	//mblint:ignore mutexhold the save IS the critical section: Put's contract is that the on-disk snapshot is complete after every record, so concurrent rewrites must serialize under w.mu
	return Save(w.path, &w.snap)
}

// Len returns how many records the snapshot holds.
func (w *Writer) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.snap.Records)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
