package sim

import (
	"context"
	"errors"

	"mobilebench/internal/gpu"
)

// The GPU is a separate SoC agent: it reaches the CPU side only through
// the next tick's bus contention and the SLC pollution its texture stream
// causes, and its own state (frequency, texture cache, texture stream and
// RNG) is touched by nothing else. Its inputs are the phase's scene and
// the tick length, so in an exact run the jittered phase timeline alone
// fixes its whole step sequence. An exact run therefore steps the GPU model
// ahead on one helper goroutine and the tick loop reads the results in tick
// order, which moves the GPU's share of the tick onto another core without
// changing a bit of output. Fast-forwarded runs step it inline: which ticks
// run exactly there is decided online, from results the GPU helps produce.
const (
	// gpuAheadChunk is how many ticks of results the helper hands over at
	// once. Handing over every tick would wake one goroutine per tick, and
	// Go runs the woken one on the waker's processor, so the two halves
	// would take turns instead of overlapping.
	gpuAheadChunk = 32
	// gpuAheadDepth is how many chunks exist per run, which bounds how far
	// ahead of the tick loop the helper runs.
	gpuAheadDepth = 4
)

// gpuAhead is one exact run's GPU helper: a goroutine stepping the GPU for
// ticks 0..ticks-1 into chunk buffers, and the tick loop's cursor over the
// chunks it has handed over.
//
// Every chunk buffer is at any moment in free, in full, with the helper or
// with the tick loop, so sends on either channel (each holds every buffer)
// never block.
type gpuAhead struct {
	// full carries stepped chunks in tick order. The helper closes it when
	// it returns; by then panicked holds a panic it recovered, and err the
	// context's error if it stopped because the context was done.
	full chan []gpu.Result
	// free is the free list of chunk buffers the tick loop has consumed.
	free chan []gpu.Result
	// stop is closed by halt: the run is over.
	stop     chan struct{}
	panicked any
	err      error

	cur []gpu.Result // the chunk the tick loop is reading
	pos int          // the next result in cur
}

// startGPUAhead starts the helper for a run of ticks ticks, stepping
// step(0), step(1), ... into gpuAheadDepth chunks carved from buf, which
// must hold gpuAheadDepth*gpuAheadChunk results. The helper stops early
// when ctx is done or halt is called. The caller must call halt before it
// touches whatever step touches, and before it reuses buf.
func startGPUAhead(ctx context.Context, buf []gpu.Result, ticks int, step func(tick int) gpu.Result) *gpuAhead {
	a := &gpuAhead{
		full: make(chan []gpu.Result, gpuAheadDepth),
		free: make(chan []gpu.Result, gpuAheadDepth),
		stop: make(chan struct{}),
	}
	for i := 0; i < gpuAheadDepth; i++ {
		a.free <- buf[i*gpuAheadChunk : (i+1)*gpuAheadChunk : (i+1)*gpuAheadChunk]
	}
	go a.run(ctx, ticks, step)
	return a
}

// run is the helper goroutine.
func (a *gpuAhead) run(ctx context.Context, ticks int, step func(tick int) gpu.Result) {
	defer close(a.full)
	for tick := 0; tick < ticks; {
		var c []gpu.Result
		select {
		case c = <-a.free:
		case <-a.stop:
			return
		case <-ctx.Done():
			a.err = ctx.Err()
			return
		}
		n := a.fill(c[:min(cap(c), ticks-tick)], tick, step)
		a.full <- c[:n]
		if a.panicked != nil {
			return
		}
		tick += n
	}
}

// fill steps ticks tick, tick+1, ... into c and returns how many results
// it stored: all of c, or those before step panicked. It keeps the panic
// value in panicked, and next re-raises it on the run's goroutine once the
// tick loop has read the results before it, so the run fails at the tick
// an inline step would have.
func (a *gpuAhead) fill(c []gpu.Result, tick int, step func(tick int) gpu.Result) (n int) {
	defer func() {
		if p := recover(); p != nil {
			a.panicked = p
		}
	}()
	for n < len(c) {
		c[n] = step(tick + n)
		n++
	}
	return n
}

// next returns the GPU result of the tick loop's next tick. It returns the
// context's error when the helper stopped because ctx is done, and panics
// with the helper's panic value when step panicked.
func (a *gpuAhead) next() (gpu.Result, error) {
	if a.pos == len(a.cur) {
		if a.cur != nil {
			a.free <- a.cur
		}
		c, ok := <-a.full
		if !ok {
			a.cur = nil
			if a.panicked != nil {
				panic(a.panicked)
			}
			if a.err != nil {
				return gpu.Result{}, a.err
			}
			return gpu.Result{}, errors.New("sim: GPU helper ran out of ticks")
		}
		a.cur, a.pos = c, 0
	}
	r := a.cur[a.pos]
	a.pos++
	return r, nil
}

// halt stops the helper and waits for it to return, so the GPU model and
// the chunk buffers are the caller's again. Call it exactly once.
func (a *gpuAhead) halt() {
	close(a.stop)
	for range a.full {
	}
}
