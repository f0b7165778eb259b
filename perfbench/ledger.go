package main

// The per-module cost ledger. The tick-level modules cannot be timed one
// call at a time from outside, so a traced run takes a CPU profile around
// the workload and charges every sample to the innermost
// mobilebench/internal/<pkg> frame on its stack (standard-library frames
// such as math.Pow go to their caller). Samples inside the garbage
// collector go to runtime.gc_s, stacks made only of runtime frames to
// runtime.self_s, and everything else — the benchmark's own client, net/http
// plumbing outside a handler, unlisted packages — to an explicit
// other.self_s. The ledger closes when the charged samples add up to the
// process CPU time the kernel reports for the same window; the capacity
// left unused (GOMAXPROCS x wall minus CPU) is reported as idle.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// ledgerLayers are the internal packages the ledger names; internal/trace
// is charged to profiler, the package that drives it.
var ledgerLayers = []string{
	"xrand", "cache", "branch", "gpu", "cpu", "sched", "mem", "aie", "power", "thermal",
	"profiler", "sim", "par", "core", "cluster", "stats", "subset", "report", "workload",
	"soc", "server", "dist", "checkpoint",
}

// ledgerBound is the largest relative gap between profiled and kernel CPU
// time a traced run accepts as a closed ledger.
const ledgerBound = 0.15

const internalPrefix = "mobilebench/internal/"

// gcFuncs mark a stack as garbage-collector work wherever they appear.
var gcFuncs = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.markroot", "runtime.gcDrain",
}

// ledger is one profiled window.
type ledger struct {
	buf    bytes.Buffer
	start  time.Time
	cpu0   float64
	alloc0 uint64
}

// Ledger is the accumulated cost of every profiled window of a run.
type Ledger struct {
	Self    map[string]float64 // bucket -> CPU seconds charged by the profile
	WallS   float64            // wall time of the profiled windows
	CPUS    float64            // process CPU time the kernel reports for them
	AllocMB float64            // heap bytes allocated in them
	Windows int
}

func startLedger() (*ledger, error) {
	l := &ledger{}
	l.alloc0 = totalAlloc()
	l.cpu0 = processCPU()
	l.start = time.Now()
	if err := pprof.StartCPUProfile(&l.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return l, nil
}

// stop ends the window and adds it to total.
func (l *ledger) stop(total *Ledger) error {
	pprof.StopCPUProfile()
	wall := time.Since(l.start).Seconds()
	cpu := processCPU() - l.cpu0
	alloc := totalAlloc() - l.alloc0
	self, err := attribute(l.buf.Bytes())
	if err != nil {
		return err
	}
	if total.Self == nil {
		total.Self = make(map[string]float64)
	}
	for k, v := range self {
		total.Self[k] += v
	}
	total.WallS += wall
	total.CPUS += cpu
	total.AllocMB += float64(alloc) / (1 << 20)
	total.Windows++
	return nil
}

// ProfiledCPU is the CPU time the profile charged to any bucket.
func (t *Ledger) ProfiledCPU() float64 {
	s := 0.0
	for _, v := range t.Self {
		s += v
	}
	return s
}

// ClosureErr is the relative gap between the profile's total and the
// kernel's CPU time.
func (t *Ledger) ClosureErr() float64 {
	if t.CPUS <= 0 {
		return math.Inf(1)
	}
	return math.Abs(t.ProfiledCPU()-t.CPUS) / t.CPUS
}

// check marks rep incorrect when the ledger does not close.
func (t *Ledger) check(rep *Report) {
	if e := t.ClosureErr(); e > ledgerBound {
		rep.fail("ledger does not close: profiled %.3f s vs %.3f s CPU (gap %.1f%% > %.0f%%)",
			t.ProfiledCPU(), t.CPUS, e*100, ledgerBound*100)
	}
}

// metrics renders the ledger as per-layer metrics, each divided by per
// (the number of operations the windows covered, or 1).
func (t *Ledger) metrics(m map[string]float64, per float64) {
	for _, layer := range ledgerLayers {
		m[layer+".self_s"] = t.Self[layer] / per
	}
	m["runtime.gc_s"] = t.Self["runtime.gc"] / per
	m["runtime.self_s"] = t.Self["runtime"] / per
	m["other.self_s"] = t.Self["other"] / per
	m["runtime.alloc_mb"] = t.AllocMB / per
	m["ledger.wall_s"] = t.WallS / per
	m["ledger.cpu_s"] = t.CPUS / per
	m["ledger.idle_s"] = math.Max(0, float64(runtime.GOMAXPROCS(0))*t.WallS-t.CPUS) / per
	m["ledger.closure_err"] = t.ClosureErr()
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// bucketOf charges one stack (function names, innermost first).
func bucketOf(stack []string) string {
	for _, fn := range stack {
		for _, gc := range gcFuncs {
			if strings.HasPrefix(fn, gc) {
				return "runtime.gc"
			}
		}
	}
	for _, fn := range stack {
		if !strings.HasPrefix(fn, internalPrefix) {
			continue
		}
		pkg := fn[len(internalPrefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if pkg == "trace" {
			pkg = "profiler"
		}
		for _, layer := range ledgerLayers {
			if layer == pkg {
				return layer
			}
		}
		return "other"
	}
	for _, fn := range stack {
		if !strings.HasPrefix(fn, "runtime.") {
			return "other"
		}
	}
	return "runtime"
}

// attribute decodes a gzipped pprof CPU profile and returns the CPU
// seconds charged to each bucket.
func attribute(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				if i := p.funcName[fid]; i >= 0 && int(i) < len(p.strs) {
					stack = append(stack, p.strs[i])
				}
			}
		}
		if len(s.vals) == 0 {
			continue
		}
		// A CPU profile's last sample value is CPU nanoseconds.
		out[bucketOf(stack)] += float64(s.vals[len(s.vals)-1]) / 1e9
	}
	return out, nil
}

// profile holds the parts of a pprof protobuf the ledger reads.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location -> function ids, innermost first
	funcName map[uint64]int64    // function -> string-table index
	strs     []string
}

type profSample struct {
	locs []uint64 // innermost first
	vals []int64
}

// Field numbers of profile.proto.
const (
	pbProfileSample   = 2
	pbProfileLocation = 4
	pbProfileFunction = 5
	pbProfileString   = 6
	pbSampleLocation  = 1
	pbSampleValue     = 2
	pbLocationID      = 1
	pbLocationLine    = 4
	pbLineFunction    = 1
	pbFunctionID      = 1
	pbFunctionName    = 2
)

func decodeProfile(raw []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]int64)}
	err := pbFields(raw, func(num int, v uint64, data []byte, packed bool) error {
		switch num {
		case pbProfileSample:
			var s profSample
			err := pbFields(data, func(num int, v uint64, data []byte, packed bool) error {
				switch num {
				case pbSampleLocation:
					return pbUints(v, data, packed, func(u uint64) { s.locs = append(s.locs, u) })
				case pbSampleValue:
					return pbUints(v, data, packed, func(u uint64) { s.vals = append(s.vals, int64(u)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case pbProfileLocation:
			var id uint64
			var fns []uint64
			err := pbFields(data, func(num int, v uint64, data []byte, _ bool) error {
				switch num {
				case pbLocationID:
					id = v
				case pbLocationLine:
					return pbFields(data, func(num int, v uint64, _ []byte, _ bool) error {
						if num == pbLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case pbProfileFunction:
			var id uint64
			name := int64(-1)
			err := pbFields(data, func(num int, v uint64, _ []byte, _ bool) error {
				switch num {
				case pbFunctionID:
					id = v
				case pbFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case pbProfileString:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

var errProto = errors.New("malformed CPU profile")

// pbFields calls fn for every field of one protobuf message: v carries a
// varint field's value, data a length-delimited field's payload (packed is
// then true, as a repeated scalar may be packed). Fixed-width fields are
// skipped; the profile format uses none the ledger reads.
func pbFields(b []byte, fn func(num int, v uint64, data []byte, packed bool) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil, false); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data, true); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// pbUints delivers a repeated varint field, packed or not.
func pbUints(v uint64, data []byte, packed bool, add func(uint64)) error {
	if !packed {
		add(v)
		return nil
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		add(u)
		data = data[n:]
	}
	return nil
}
