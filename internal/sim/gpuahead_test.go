package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mobilebench/internal/gpu"
	"mobilebench/internal/mem"
	"mobilebench/internal/soc"
	"mobilebench/internal/workload"
)

// longGPUWorkload is gpuWorkload stretched to 600 ticks, so a run outlives
// several of the GPU helper's chunks and the ctx poll interval.
func longGPUWorkload() workload.Workload {
	w := gpuWorkload()
	w.Phases[0].Duration = 60
	return w
}

// hookProvider mints analytic timing models that call hook, when set,
// before every tick's Step; a non-nil error fails that tick.
type hookProvider struct {
	hook func(tick int) error
	// ticks is the Step count of the last model's current run.
	ticks int
}

func (p *hookProvider) NewTimingModel(memHW soc.Memory, storHW soc.Storage) (TimingModel, error) {
	return &hookTiming{TimingModel: newAnalyticTiming(memHW, storHW), p: p}, nil
}

func (p *hookProvider) Fingerprint() string { return "" }

type hookTiming struct {
	TimingModel
	p *hookProvider
}

func (t *hookTiming) Step(target mem.Footprint, io mem.IODemand, dt float64) (mem.Result, mem.IOResult, error) {
	tick := t.p.ticks
	t.p.ticks++
	if t.p.hook != nil {
		if err := t.p.hook(tick); err != nil {
			return mem.Result{}, mem.IOResult{}, err
		}
	}
	return t.TimingModel.Step(target, io, dt)
}

func (t *hookTiming) Reset() error {
	t.p.ticks = 0
	return t.TimingModel.Reset()
}

// waitGoroutines fails the test unless the goroutine count falls back to
// base within a few seconds. A joined helper has returned from its work
// but may still be unwinding when the run returns, hence the polling.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before: the GPU helper was not joined",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// abortAt is the tick at which the lifecycle tests abort a 600-tick run: past
// the helper's first chunks and between two ctx polls.
const abortAt = 200

// TestGPUAheadCancelMidRun cancels an exact GPU-heavy run mid-run. It must
// return the context's error within one ctx poll interval of the cancel,
// with the helper joined.
func TestGPUAheadCancelMidRun(t *testing.T) {
	p := new(hookProvider)
	eng := MustNew(Config{Timing: p})
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.hook = func(tick int) error {
		if tick == abortAt {
			cancel()
		}
		return nil
	}
	if _, err := eng.RunContext(ctx, longGPUWorkload(), 0); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if p.ticks > abortAt+ctxCheckTicks {
		t.Errorf("run stepped %d ticks after the cancel at tick %d, want at most %d",
			p.ticks-abortAt-1, abortAt, ctxCheckTicks)
	}
	waitGoroutines(t, base)
}

// TestGPUAheadTimingErrorMidRun fails the timing model mid-run: the run
// returns that error at that tick, with the helper joined.
func TestGPUAheadTimingErrorMidRun(t *testing.T) {
	boom := errors.New("timing backend gone")
	p := &hookProvider{hook: func(tick int) error {
		if tick == abortAt {
			return boom
		}
		return nil
	}}
	eng := MustNew(Config{Timing: p})
	base := runtime.NumGoroutine()
	if _, err := eng.Run(longGPUWorkload(), 0); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the timing model's error", err)
	}
	if p.ticks != abortAt+1 {
		t.Errorf("run stepped %d ticks, want %d", p.ticks, abortAt+1)
	}
	waitGoroutines(t, base)
}

// TestGPUAheadAbortedRunLeavesPoolClean aborts exact runs (a cancel and a
// timing error) on an engine whose pool holds one model set, then checks
// the next run on those models equals a fresh engine's run.
func TestGPUAheadAbortedRunLeavesPoolClean(t *testing.T) {
	w := longGPUWorkload()
	want, err := MustNew(Config{Timing: new(hookProvider)}).Run(w, 1)
	if err != nil {
		t.Fatal(err)
	}

	p := new(hookProvider)
	eng := MustNew(Config{Timing: p})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.hook = func(tick int) error {
		if tick == abortAt {
			cancel()
		}
		return nil
	}
	if _, err := eng.RunContext(ctx, w, 1); err != context.Canceled {
		t.Fatalf("cancelled run: err = %v", err)
	}
	p.hook = func(tick int) error {
		if tick == abortAt+37 {
			return errors.New("fail")
		}
		return nil
	}
	if _, err := eng.Run(w, 1); err == nil {
		t.Fatal("failing run succeeded")
	}
	p.hook = nil
	got, err := eng.Run(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("run on the models of aborted runs differs from a fresh engine's run")
	}
}

// TestGPUAheadOrder checks the helper hands over step(0..ticks-1) in order
// for tick counts below, at and past one chunk and the whole buffer.
func TestGPUAheadOrder(t *testing.T) {
	buf := make([]gpu.Result, gpuAheadDepth*gpuAheadChunk)
	for _, ticks := range []int{1, gpuAheadChunk, 3*gpuAheadChunk*gpuAheadDepth + 5} {
		a := startGPUAhead(context.Background(), buf, ticks, func(tick int) gpu.Result {
			return gpu.Result{FPS: float64(tick)}
		})
		for i := 0; i < ticks; i++ {
			r, err := a.next()
			if err != nil {
				t.Fatalf("ticks %d: next at %d: %v", ticks, i, err)
			}
			if r.FPS != float64(i) {
				t.Fatalf("ticks %d: result %d is step(%v)", ticks, i, r.FPS)
			}
		}
		a.halt()
	}
}

// TestGPUAheadPanicResurfaces panics in the helper's step function: the
// tick loop reads every result before the panicking tick, and the next
// read re-raises the panic value on the tick loop's goroutine.
func TestGPUAheadPanicResurfaces(t *testing.T) {
	const panicAt = gpuAheadChunk + 7
	base := runtime.NumGoroutine()
	a := startGPUAhead(context.Background(), make([]gpu.Result, gpuAheadDepth*gpuAheadChunk), 1000,
		func(tick int) gpu.Result {
			if tick == panicAt {
				panic("step exploded")
			}
			return gpu.Result{FPS: float64(tick)}
		})
	read := 0
	func() {
		defer func() {
			if p := recover(); p != "step exploded" {
				t.Errorf("recovered %v, want the step's panic value", p)
			}
		}()
		for ; ; read++ {
			if _, err := a.next(); err != nil {
				t.Errorf("next: %v", err)
				return
			}
		}
	}()
	if read != panicAt {
		t.Errorf("read %d results before the panic, want %d", read, panicAt)
	}
	a.halt()
	waitGoroutines(t, base)
}

// TestGPUAheadAllocsConstant pins the hand-over's allocation cost per run:
// the chunk buffers cycle through the free list, so a 20,000-tick run
// allocates no more than a 50-tick one.
func TestGPUAheadAllocsConstant(t *testing.T) {
	buf := make([]gpu.Result, gpuAheadDepth*gpuAheadChunk)
	step := func(tick int) gpu.Result { return gpu.Result{FPS: float64(tick)} }
	allocs := func(ticks int) float64 {
		return testing.AllocsPerRun(10, func() {
			a := startGPUAhead(context.Background(), buf, ticks, step)
			for i := 0; i < ticks; i++ {
				if _, err := a.next(); err != nil {
					t.Fatal(err)
				}
			}
			a.halt()
		})
	}
	short, long := allocs(50), allocs(20000)
	if long > short {
		t.Errorf("a 20000-tick hand-over allocates %v times, a 50-tick one %v", long, short)
	}
	t.Logf("allocations per run: %v (50 ticks), %v (20000 ticks)", short, long)
}
