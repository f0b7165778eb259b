// Command perfbench is the repository's seeded end-to-end benchmark. One
// invocation runs one workload for a fixed time and prints, as its last
// line, a JSON object with the run's correctness verdict and either every
// end-to-end metric (--trace 0) or every per-layer metric (--trace 1):
//
//	bash perfbench/run.sh --workload characterize-exact --seed 1 --seconds 20 --trace 0
//
// The workloads are characterize-exact, characterize-ff, serve-jobs and
// stream-ingest; NOTES.md says why each was chosen and what each metric
// should move. Every input is generated from --seed. Scratch state lives
// under .bench_build/work in the current directory and is removed on exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// runOpts is one invocation's settings.
type runOpts struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	work    string // scratch directory owned by this run
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, o runOpts) (*Report, error){
	"characterize-exact": func(ctx context.Context, o runOpts) (*Report, error) { return runCharacterize(ctx, o, false) },
	"characterize-ff":    func(ctx context.Context, o runOpts) (*Report, error) { return runCharacterize(ctx, o, true) },
	"serve-jobs":         runServeJobs,
	"stream-ingest":      runStreamIngest,
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 0, "input seed (0 keeps the simulator's default seed)")
	seconds := flag.Float64("seconds", 10, "measured duration in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", *name, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	o := runOpts{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1, work: work}
	rep, err := fn(context.Background(), o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rep.note("peak RSS %.1f MB", peakRSSMB())
	if rep.Attempted > 0 {
		rep.EndToEnd["ok_frac"] = 1 - float64(rep.Failed)/float64(rep.Attempted)
	}
	if err := rep.write(os.Stdout, o.traced); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() string { return fmt.Sprint(slices.Sorted(maps.Keys(workloads))) }

// peakRSSMB is the process's peak resident set size. It swings by tens of
// percent between identical runs with the garbage collector's timing, too
// much to gate on; mem_live_mb is the gated memory figure.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// liveHeapMB collects garbage and returns the heap still referenced: the
// memory the caller's live results hold. The second collection empties the
// sync.Pool victim caches, whose buffers would otherwise count or not
// depending on when the pools were last used.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// timeLeft reports whether another operation expected to take last still
// fits in the measured window that began at start.
func timeLeft(start time.Time, window, last time.Duration) bool {
	return time.Since(start)+last <= window
}
