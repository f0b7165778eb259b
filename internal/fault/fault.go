// Package fault is the deterministic fault-injection subsystem used to
// harden and chaos-test the collection pipeline.
//
// The paper's measurement substrate is inherently flaky: Snapdragon
// Profiler sessions drop counter samples, runs hang or abort on thermal
// events, and every benchmark is averaged over three runs precisely
// because single runs cannot be trusted. The simulator has none of those
// failure modes by construction, so this package injects them on purpose —
// reproducibly. An Injector derives every decision from a pure function of
// (unit, run, attempt) and its own seed, exactly like the simulator's
// per-(unit, run) RNG split, so a chaos run is bit-for-bit repeatable for
// any worker count and a retried attempt is a fresh, independent draw.
//
// Fault modes:
//
//   - crash: the run fails immediately (profiler session died at start).
//   - abort: the run errors partway through (thermal shutdown mid-run).
//   - hang: the run stalls mid-run for HangSec wall-clock seconds; with a
//     per-run timeout configured upstream this manifests as a deadline
//     error, without one it is merely a slow run.
//   - panic: the run panics mid-run (a worker bug); the collection layer
//     must convert this into an error instead of dying.
//   - drop: trailing counter samples of some series are dropped, leaving
//     a misaligned trace (Snapdragon Profiler's dropped-sample failure).
//   - nan: scattered samples of some series are replaced with NaN.
//   - skew: the whole run is scaled by a factor far outside run-to-run
//     jitter — a self-consistent but non-representative run, the case
//     MAD-based outlier rejection exists for.
package fault

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"mobilebench/internal/profiler"
	"mobilebench/internal/xrand"
)

// Mode identifies an injected fault class.
type Mode int

// Fault modes.
const (
	ModeNone Mode = iota
	ModeCrash
	ModeAbort
	ModeHang
	ModePanic
	ModeDrop
	ModeNaN
	ModeSkew
)

// String returns the spec-key name of the mode.
func (m Mode) String() string {
	switch m {
	case ModeCrash:
		return "crash"
	case ModeAbort:
		return "abort"
	case ModeHang:
		return "hang"
	case ModePanic:
		return "panic"
	case ModeDrop:
		return "drop"
	case ModeNaN:
		return "nan"
	case ModeSkew:
		return "skew"
	default:
		return "none"
	}
}

// InjectedError is the error surfaced by crash and abort faults, so tests
// and provenance can tell injected failures from real ones.
type InjectedError struct {
	Mode    Mode
	Unit    string
	Run     int
	Attempt int
	// Frac is the run-progress fraction at which the fault fired (0 for
	// crashes).
	Frac float64
}

// Error implements error.
func (e *InjectedError) Error() string {
	if e.Frac > 0 {
		return fmt.Sprintf("fault: injected %s at %.0f%% of %s run %d attempt %d",
			e.Mode, e.Frac*100, e.Unit, e.Run, e.Attempt)
	}
	return fmt.Sprintf("fault: injected %s in %s run %d attempt %d",
		e.Mode, e.Unit, e.Run, e.Attempt)
}

// Config parameterizes an Injector. Each probability is the per-attempt
// chance of that fault mode firing; modes are drawn independently, and at
// most one "terminal" mode (crash/abort/hang/panic) fires per attempt.
type Config struct {
	// Seed drives every injection decision. Zero selects 888 (the
	// simulator's default root seed) so that "-inject crash=0.2" alone is
	// already reproducible.
	Seed uint64
	// Crash, Abort, Hang, Panic, Drop, NaN, Skew are per-attempt fault
	// probabilities in [0, 1].
	Crash, Abort, Hang, Panic, Drop, NaN, Skew float64
	// HangSec is how long an injected hang stalls the run (wall clock).
	// Zero selects 0.5 s.
	HangSec float64
	// CleanAfter guarantees recovery: attempts numbered >= CleanAfter are
	// never faulted, so a retry budget of CleanAfter extra attempts always
	// reaches a clean run. Zero selects 3; negative disables the guarantee
	// (every attempt may be faulted).
	CleanAfter int
}

func (c Config) normalize() Config {
	if c.Seed == 0 {
		c.Seed = 888
	}
	if c.HangSec == 0 {
		c.HangSec = 0.5
	}
	if c.CleanAfter == 0 {
		c.CleanAfter = 3
	}
	return c
}

func (c Config) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"crash", c.Crash}, {"abort", c.Abort}, {"hang", c.Hang},
		{"panic", c.Panic}, {"drop", c.Drop}, {"nan", c.NaN}, {"skew", c.Skew},
	} {
		if math.IsNaN(p.v) || p.v < 0 || p.v > 1 {
			return fmt.Errorf("fault: probability %s=%v outside [0,1]", p.name, p.v)
		}
	}
	if c.HangSec < 0 || math.IsNaN(c.HangSec) || math.IsInf(c.HangSec, 0) {
		return fmt.Errorf("fault: hang_sec=%v invalid", c.HangSec)
	}
	return nil
}

// Plan is the injection decision for one (unit, run, attempt). The zero
// Plan injects nothing.
type Plan struct {
	// Crash fails the run before it starts.
	Crash bool
	// AbortFrac > 0 errors the run when its progress reaches the fraction.
	AbortFrac float64
	// HangSec > 0 stalls the run mid-way for this many wall-clock seconds
	// (cancellable by the run's context).
	HangSec float64
	// PanicFrac > 0 panics the run when its progress reaches the fraction.
	PanicFrac float64
	// DropFrac > 0 truncates trailing samples from a subset of trace
	// series, breaking alignment.
	DropFrac float64
	// NaNFrac > 0 replaces this fraction of samples in a subset of trace
	// series with NaN.
	NaNFrac float64
	// SkewFactor != 0 scales the whole run (trace and intensity
	// aggregates) by the factor; values are drawn far outside normal
	// run-to-run jitter so outlier detection has something to find.
	SkewFactor float64

	// seed drives the sample-level randomness of Corrupt.
	seed uint64
}

// Faulty reports whether the plan injects anything.
func (p Plan) Faulty() bool {
	return p.Crash || p.AbortFrac > 0 || p.HangSec > 0 || p.PanicFrac > 0 ||
		p.DropFrac > 0 || p.NaNFrac > 0 || p.SkewFactor != 0
}

// Injector decides, deterministically, which faults strike which attempt.
// A nil *Injector is valid and injects nothing.
type Injector struct {
	cfg    Config
	planFn func(unit string, run, attempt int) Plan
}

// New returns an injector for the config. It panics on invalid
// probabilities; use Parse for validated construction from user input.
func New(cfg Config) *Injector {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &Injector{cfg: cfg.normalize()}
}

// NewFunc returns an injector whose plans come from fn verbatim — the
// test seam for scripting exact fault scenarios.
func NewFunc(fn func(unit string, run, attempt int) Plan) *Injector {
	return &Injector{planFn: fn}
}

// Config returns the normalized configuration (zero for NewFunc injectors).
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}
	}
	return in.cfg
}

// PlanFor returns the injection plan for one (unit, run, attempt). The
// result is a pure function of the injector seed and the three keys, so
// chaos runs are reproducible across worker counts and process restarts.
func (in *Injector) PlanFor(unit string, run, attempt int) Plan {
	if in == nil {
		return Plan{}
	}
	if in.planFn != nil {
		return in.planFn(unit, run, attempt)
	}
	c := in.cfg
	if c.CleanAfter >= 0 && attempt >= c.CleanAfter {
		return Plan{}
	}
	rng := xrand.New(c.Seed).
		Split(xrand.HashString(unit)).
		Split(uint64(run) + 1).
		Split(uint64(attempt) + 1)
	var p Plan
	p.seed = rng.Uint64()
	// Corruption modes are independent of each other and of the terminal
	// mode; a run can both drop samples and then abort.
	if rng.Bool(c.Drop) {
		p.DropFrac = 0.02 + 0.08*rng.Float64()
	}
	if rng.Bool(c.NaN) {
		p.NaNFrac = 0.005 + 0.03*rng.Float64()
	}
	if rng.Bool(c.Skew) {
		if rng.Bool(0.5) {
			p.SkewFactor = 0.4 + 0.2*rng.Float64() // 0.4 .. 0.6
		} else {
			p.SkewFactor = 1.5 + 0.4*rng.Float64() // 1.5 .. 1.9
		}
	}
	// At most one terminal mode per attempt, picked in fixed priority
	// order so the draw count stays constant.
	crash, abort, hang, pan := rng.Bool(c.Crash), rng.Bool(c.Abort), rng.Bool(c.Hang), rng.Bool(c.Panic)
	frac := 0.1 + 0.8*rng.Float64()
	switch {
	case crash:
		p.Crash = true
	case abort:
		p.AbortFrac = frac
	case hang:
		p.HangSec = c.HangSec
	case pan:
		p.PanicFrac = frac
	}
	return p
}

// Corrupt applies the plan's trace-corruption modes (drop, nan, skew) to
// the trace in place and reports whether anything was corrupted. The
// affected series and samples derive from the plan's private seed, so the
// damage is as reproducible as the decision to inflict it.
func (p Plan) Corrupt(t *profiler.Trace) bool {
	if t == nil || t.Samples == 0 || (p.DropFrac <= 0 && p.NaNFrac <= 0 && p.SkewFactor == 0) {
		return false
	}
	rng := xrand.New(p.seed)
	names := t.Metrics()
	sort.Strings(names)
	did := false
	if p.SkewFactor != 0 && p.SkewFactor != 1 {
		for _, n := range names {
			s := t.Series(n)
			for i := range s.Values {
				s.Values[i] *= p.SkewFactor
			}
		}
		did = true
	}
	if p.NaNFrac > 0 {
		for _, n := range pickSeries(rng, names) {
			s := t.Series(n)
			k := int(p.NaNFrac * float64(len(s.Values)))
			if k < 1 {
				k = 1
			}
			for j := 0; j < k; j++ {
				s.Values[rng.Intn(len(s.Values))] = math.NaN()
			}
			did = true
		}
	}
	if p.DropFrac > 0 {
		for _, n := range pickSeries(rng, names) {
			s := t.Series(n)
			k := int(p.DropFrac * float64(len(s.Values)))
			if k < 1 {
				k = 1
			}
			if k >= len(s.Values) {
				k = len(s.Values) - 1
			}
			s.Values = s.Values[:len(s.Values)-k]
			did = true
		}
	}
	return did
}

// pickSeries selects a small deterministic subset of the sorted names.
func pickSeries(rng *xrand.Rand, names []string) []string {
	if len(names) == 0 {
		return nil
	}
	k := 1 + rng.Intn(4)
	if k > len(names) {
		k = len(names)
	}
	out := make([]string, 0, k)
	seen := make(map[int]bool, k)
	for len(out) < k {
		i := rng.Intn(len(names))
		if seen[i] {
			continue
		}
		seen[i] = true
		out = append(out, names[i])
	}
	sort.Strings(out)
	return out
}

// Parse builds an injector from a comma-separated spec, the format of the
// CLIs' -inject flag:
//
//	crash=0.2,abort=0.1,hang=0.1,panic=0.05,drop=0.1,nan=0.1,skew=0.1,
//	seed=7,hang_sec=0.5,clean_after=3
//
// Unknown keys and out-of-range probabilities are errors. The empty spec
// returns a nil injector (no injection).
func Parse(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var cfg Config
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("fault: spec entry %q is not key=value", kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q: %w", val, err)
			}
			cfg.Seed = n
		case "clean_after":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("fault: bad clean_after %q: %w", val, err)
			}
			cfg.CleanAfter = n
		case "hang_sec":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad hang_sec %q: %w", val, err)
			}
			cfg.HangSec = f
		case "crash", "abort", "hang", "panic", "drop", "nan", "skew":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad probability %s=%q: %w", key, val, err)
			}
			switch key {
			case "crash":
				cfg.Crash = f
			case "abort":
				cfg.Abort = f
			case "hang":
				cfg.Hang = f
			case "panic":
				cfg.Panic = f
			case "drop":
				cfg.Drop = f
			case "nan":
				cfg.NaN = f
			case "skew":
				cfg.Skew = f
			}
		default:
			return nil, fmt.Errorf("fault: unknown spec key %q", key)
		}
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg.normalize()}, nil
}

// attemptKey carries the retry-attempt number through a context, so the
// engine (which only knows (workload, run)) can key injection decisions by
// attempt without a signature change.
type attemptKey struct{}

// WithAttempt tags the context with the attempt number of the run it will
// execute.
func WithAttempt(ctx context.Context, attempt int) context.Context {
	return context.WithValue(ctx, attemptKey{}, attempt)
}

// Attempt returns the context's attempt number (0 when untagged).
func Attempt(ctx context.Context) int {
	if v, ok := ctx.Value(attemptKey{}).(int); ok {
		return v
	}
	return 0
}
