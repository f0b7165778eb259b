// Package checkpoint provides crash-safe persistence for long collections.
//
// A collection checkpoint is a record log (see Log): every completed
// (unit, run) — the simulation result, the attempt counter and the run's
// provenance — is appended as one CRC-guarded line and fsynced before the
// collection moves on. Nothing is ever rewritten, so a killed process loses
// at most the pairs it was simulating, and a torn final append is dropped
// on the next read. A resumed collection restores the completed pairs
// bit-for-bit and re-runs only the remainder; because the simulator
// derives every value from (seed, unit, run, attempt), the resumed dataset
// is identical to an uninterrupted one.
//
// Corrupt or mismatched checkpoints never poison a dataset silently: Load
// and Resume verify the log framing and every record's encoding
// (*CorruptError), schema version (*VersionError) and collection-options
// fingerprint (*MismatchError) before a single record is trusted.
package checkpoint

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"mobilebench/internal/profiler"
	"mobilebench/internal/sim"
	"mobilebench/internal/trace"
)

// Version is the record schema version this package writes. It is bumped
// whenever the record layout changes (including any change to the
// serialized sim.Aggregates field set); records from other versions are
// rejected with a *VersionError rather than decoded on luck.
const Version uint32 = 2

// CorruptError reports a checkpoint that failed structural verification:
// damaged log framing, an undecodable record, or a file that is not a
// record log at all. The checkpoint must be discarded.
type CorruptError struct {
	Path   string
	Reason string
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("checkpoint: %s is corrupt: %s", e.Path, e.Reason)
}

// VersionError reports a record written by an incompatible schema
// version.
type VersionError struct {
	Path      string
	Got, Want uint32
}

// Error implements error.
func (e *VersionError) Error() string {
	return fmt.Sprintf("checkpoint: %s has schema version %d, want %d", e.Path, e.Got, e.Want)
}

// MismatchError reports a record whose options fingerprint does not
// match the resuming collection — the checkpoint is internally consistent
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

// Snapshot is one collection's persisted state, as read back from its log.
type Snapshot struct {
	// Fingerprint binds the records to the collection options that
	// produced them.
	Fingerprint uint64
	// Records holds completed (unit, run) pairs in first-append order.
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

// EncodeRecord returns the log payload for one completed (unit, run):
// base64, which never holds the log's newline, of the schema version
// (u32), the options fingerprint (u64) and the record, all little-endian
// with floats as raw IEEE bits so a restored sim.Result is bit-identical.
func EncodeRecord(fingerprint uint64, r *RunRecord) []byte {
	var b bytes.Buffer
	putU32(&b, Version)
	putU64(&b, fingerprint)
	encodeRecord(&b, r)
	return base64.StdEncoding.AppendEncode(nil, b.Bytes())
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

// Load reads and verifies the collection log at path without modifying
// it. It returns the raw os.ReadFile error (satisfying errors.Is(err,
// fs.ErrNotExist)) when the file is missing, and the package's typed
// errors on corruption, version skew or a fingerprint mismatch. A
// wantFingerprint of 0 skips the fingerprint check (inspection tooling);
// the records must then still agree with each other. Collections always
// pass their real fingerprint.
func Load(path string, wantFingerprint uint64) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payloads, _, err := parseLog(path, data)
	return decodeLog(path, payloads, err, wantFingerprint)
}

// Resume reopens the collection log at path for appending through
// RecoverLog and returns it with the records it holds, verified as Load
// verifies them. A missing file is an empty log. On error nothing is
// left open, and the file is as it was but for a torn final append
// RecoverLog dropped (never acked, and ignored by every reader).
func Resume(path string, wantFingerprint uint64) (*Log, *Snapshot, error) {
	l, payloads, err := RecoverLog(path)
	s, err := decodeLog(path, payloads, err, wantFingerprint)
	if err != nil {
		if l != nil {
			_ = l.Close()
		}
		return nil, nil, err
	}
	return l, s, nil
}

// decodeLog decodes what reading a collection log returned. Damaged
// framing is a *CorruptError like an undecodable record. When a (unit,
// run) was appended more than once (an outlier re-run, a re-dispatched
// job), the last record wins.
func decodeLog(path string, payloads [][]byte, err error, wantFingerprint uint64) (*Snapshot, error) {
	var le *CorruptLogError
	if errors.As(err, &le) {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("line %d: %s", le.Line, le.Why)}
	}
	if err != nil {
		return nil, err
	}
	s := &Snapshot{Fingerprint: wantFingerprint}
	var raw []byte // reused: a decoded record copies everything it keeps
	for i, p := range payloads {
		if raw, err = base64.StdEncoding.AppendDecode(raw[:0], p); err != nil {
			return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("line %d: %v", i+1, err)}
		}
		var rec RunRecord
		if rec, s.Fingerprint, err = decodePayload(path, i+1, raw, s.Fingerprint); err != nil {
			return nil, err
		}
		if old := s.Find(rec.Unit, rec.Run); old != nil {
			*old = rec
		} else {
			s.Records = append(s.Records, rec)
		}
	}
	return s, nil
}

// decodePayload decodes the base64-decoded payload on line of the log,
// checking its schema version and — unless want is 0 — its options
// fingerprint, which it returns.
func decodePayload(path string, line int, raw []byte, want uint64) (RunRecord, uint64, error) {
	d := &decoder{path: path, data: raw}
	v, fp := d.u32(), d.u64()
	var rec RunRecord
	switch {
	case d.err != nil: // a header cut short, reported below
	case v != Version:
		return rec, 0, &VersionError{Path: path, Got: v, Want: Version}
	case want != 0 && fp != want:
		return rec, 0, &MismatchError{Path: path, Got: fp, Want: want}
	default:
		var err error
		if rec, err = d.record(); err != nil {
			return RunRecord{}, 0, err
		}
		if d.err == nil && d.off != len(raw) {
			d.err = fmt.Errorf("%d trailing bytes after the record", len(raw)-d.off)
		}
	}
	if d.err != nil {
		return RunRecord{}, 0, &CorruptError{Path: path, Reason: fmt.Sprintf("line %d: %v", line, d.err)}
	}
	return rec, fp, nil
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
		d.err = fmt.Errorf("string of %d bytes overruns the record at offset %d", n, d.off)
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

// AtomicFile is a file whose content becomes visible at the destination
// path only on Commit: writes go to a temp file in the same directory,
// Commit fsyncs, renames over the destination and fsyncs the directory.
// A crash before Commit leaves the previous file untouched. It is the
// write path for every durable whole blob in the repository (CLI -o
// outputs, served job state, cache entries); record sequences append
// through Log instead.
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
