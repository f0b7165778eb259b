// Package cliflag is the one collection front-end of the seven batch CLIs
// (mbchar, mbtrace, mbcluster, mbsubset, mbsim, mbcalibrate, mbreport),
// plus the flag groups mbserved shares with them.
//
// RegisterCollection registers the flags every batch CLI takes: -runs,
// -workers, -max-retries, -run-timeout, -min-runs, -fail-fast, -inject,
// -checkpoint and -resume. A CLI that also takes -cpuprofile/-memprofile
// or -timing-model/-timing-replay stores the RegisterProfile or
// RegisterTiming result on the Collection. Collection.Collect then turns
// the flags into one core collection, so
// `mbchar -inject crash=0.2 -max-retries 3` and
// `mbreport -inject crash=0.2 -max-retries 3` mean the same thing, and
// each main keeps only its own view flags and rendering.
package cliflag

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"mobilebench/internal/core"
	"mobilebench/internal/fault"
	"mobilebench/internal/sim"
	"mobilebench/internal/workload"
)

// Collection holds the values of the collection flags.
type Collection struct {
	Runs       int
	Workers    int
	Resilience core.Resilience
	// InjectSpec is the -inject fault-injection spec ("" injects nothing).
	InjectSpec string
	// Checkpoint is the -checkpoint record log ("" disables it); Resume
	// restores the completed (benchmark, run) pairs it holds first.
	Checkpoint string
	Resume     bool

	// Profile and Timing are the optional flag groups; nil when the CLI
	// does not take them.
	Profile *Profile
	Timing  *Timing
}

// RegisterCollection registers the collection flags on fs, with runs as
// the -runs default, and returns the value holder; read it after
// fs.Parse.
func RegisterCollection(fs *flag.FlagSet, runs int) *Collection {
	c := &Collection{}
	fs.IntVar(&c.Runs, "runs", runs, "runs to average per benchmark")
	fs.IntVar(&c.Workers, "workers", 0, "simulation and analysis worker goroutines (0 = all cores)")
	fs.IntVar(&c.Resilience.MaxRetries, "max-retries", 0,
		"extra attempts per (benchmark, run) after a failed one (0 = fail on the first error)")
	fs.DurationVar(&c.Resilience.RunTimeout, "run-timeout", 0,
		"per-attempt wall-clock timeout, e.g. 30s (0 = no timeout)")
	fs.IntVar(&c.Resilience.MinRuns, "min-runs", 0,
		"accept a benchmark once this many of its runs are valid (0 = every run required)")
	fs.BoolVar(&c.Resilience.FailFast, "fail-fast", false,
		"abort on the first permanently failed run instead of finishing siblings")
	fs.StringVar(&c.InjectSpec, "inject", "",
		"deterministic fault-injection spec for chaos testing, e.g. crash=0.2,nan=0.1,seed=7")
	fs.StringVar(&c.Checkpoint, "checkpoint", "",
		"record log to which every completed (benchmark, run) is appended and fsynced, so a killed collection can resume")
	fs.BoolVar(&c.Resume, "resume", false,
		"restore completed (benchmark, run) pairs from the -checkpoint log before collecting the rest, appending to it")
	return c
}

// options validates the flags and builds the fault injector, returning
// the core options that collect units (nil = the 18 analysis units) under
// cfg. It starts nothing: a flag combination core would refuse anyway
// fails here with a CLI-shaped message.
func (c *Collection) options(cfg sim.Config, units []workload.Workload) (core.Options, error) {
	if c.Resume && c.Checkpoint == "" {
		return core.Options{}, errors.New("-resume requires -checkpoint to name the checkpoint log")
	}
	if err := c.Timing.Validate(); err != nil {
		return core.Options{}, err
	}
	inj, err := fault.Parse(c.InjectSpec)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Sim:        cfg,
		Fault:      inj,
		Runs:       c.Runs,
		Units:      units,
		Workers:    c.Workers,
		Resilience: c.Resilience,
		Checkpoint: c.Checkpoint,
		Resume:     c.Resume,
	}, nil
}

// Collect runs the collection the flags select: options, then the
// external timing model and the profiler when their flags are set, then
// core.CollectContext. It warns on stderr, prefixed with prog, when the
// dataset fell short of a full set of clean runs, so degraded numbers
// never pass silently. The returned cleanup stops the profiler and
// closes the timing model; call it once the output is written.
func (c *Collection) Collect(ctx context.Context, prog string, cfg sim.Config, units []workload.Workload) (*core.Dataset, func() error, error) {
	opts, err := c.options(cfg, units)
	if err != nil {
		return nil, nil, err
	}
	timing, err := c.Timing.Provider(nil)
	if err != nil {
		return nil, nil, err
	}
	closeTiming := func() {}
	if timing != nil {
		opts.Sim.Timing = timing
		closeTiming = func() { _ = timing.Close() }
	}
	if err := c.Profile.Start(); err != nil {
		closeTiming()
		return nil, nil, err
	}
	cleanup := func() error {
		defer closeTiming()
		return c.Profile.Stop()
	}
	ds, err := core.CollectContext(ctx, opts)
	if err != nil {
		_ = cleanup()
		return nil, nil, err
	}
	warnDegraded(prog, ds)
	return ds, cleanup, nil
}

// warnDegraded prints the provenance of every degraded unit to stderr.
func warnDegraded(prog string, ds *core.Dataset) {
	if !ds.Degraded() {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: warning: collection degraded by faults:\n", prog)
	for _, p := range ds.Provenance {
		if p.Degraded() {
			fmt.Fprintf(os.Stderr, "%s:   %s\n", prog, p)
		}
	}
}
