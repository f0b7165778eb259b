// Package cliflag holds the fault-tolerance and durability flags shared by
// every CLI: -max-retries, -run-timeout, -min-runs, -fail-fast and -inject,
// plus -checkpoint and -resume, wired identically so
// `mbchar -inject crash=0.2 -max-retries 3` and
// `mbreport -inject crash=0.2 -max-retries 3` mean the same thing.
package cliflag

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mobilebench/internal/core"
	"mobilebench/internal/fault"
)

// Resilience holds the values of the shared fault-tolerance flags.
type Resilience struct {
	MaxRetries int
	RunTimeout time.Duration
	MinRuns    int
	FailFast   bool
	InjectSpec string
}

// RegisterResilience registers the shared flags on the default flag set and
// returns the value holder; read it after flag.Parse.
func RegisterResilience() *Resilience {
	return RegisterResilienceOn(flag.CommandLine)
}

// RegisterResilienceOn is RegisterResilience on an explicit flag set, the
// testable seam every CLI funnels through.
func RegisterResilienceOn(fs *flag.FlagSet) *Resilience {
	r := &Resilience{}
	fs.IntVar(&r.MaxRetries, "max-retries", 0,
		"extra attempts per (benchmark, run) after a failed one (0 = fail on the first error)")
	fs.DurationVar(&r.RunTimeout, "run-timeout", 0,
		"per-attempt wall-clock timeout, e.g. 30s (0 = no timeout)")
	fs.IntVar(&r.MinRuns, "min-runs", 0,
		"accept a benchmark once this many of its runs are valid (0 = every run required)")
	fs.BoolVar(&r.FailFast, "fail-fast", false,
		"abort on the first permanently failed run instead of finishing siblings")
	fs.StringVar(&r.InjectSpec, "inject", "",
		"deterministic fault-injection spec for chaos testing, e.g. crash=0.2,nan=0.1,seed=7")
	return r
}

// Checkpoint holds the values of the shared durability flags.
type Checkpoint struct {
	// Path is the -checkpoint record log ("" disables checkpointing).
	Path string
	// Resume is the -resume flag: restore completed (benchmark, run)
	// pairs from Path before collecting.
	Resume bool
}

// RegisterCheckpoint registers the durability flags on the default flag set
// and returns the value holder; read it after flag.Parse.
func RegisterCheckpoint() *Checkpoint {
	return RegisterCheckpointOn(flag.CommandLine)
}

// RegisterCheckpointOn is RegisterCheckpoint on an explicit flag set.
func RegisterCheckpointOn(fs *flag.FlagSet) *Checkpoint {
	c := &Checkpoint{}
	fs.StringVar(&c.Path, "checkpoint", "",
		"record log to which every completed (benchmark, run) is appended and fsynced, so a killed collection can resume")
	fs.BoolVar(&c.Resume, "resume", false,
		"restore completed (benchmark, run) pairs from the -checkpoint log before collecting the rest, appending to it")
	return c
}

// Validate rejects flag combinations core would refuse anyway, but with a
// CLI-shaped message before any simulation starts.
func (c *Checkpoint) Validate() error {
	if c.Resume && c.Path == "" {
		return fmt.Errorf("-resume requires -checkpoint to name the checkpoint log")
	}
	return nil
}

// Policy returns the retry/timeout policy the flags selected.
func (r *Resilience) Policy() core.Resilience {
	return core.Resilience{
		MaxRetries: r.MaxRetries,
		RunTimeout: r.RunTimeout,
		FailFast:   r.FailFast,
		MinRuns:    r.MinRuns,
	}
}

// Injector parses the -inject spec (nil when the flag is unset).
func (r *Resilience) Injector() (*fault.Injector, error) {
	return fault.Parse(r.InjectSpec)
}

// WarnDegraded prints the collection provenance to stderr when the dataset
// fell short of a full set of clean runs, so degraded numbers never pass
// silently.
func WarnDegraded(prog string, ds *core.Dataset) {
	if ds == nil || !ds.Degraded() {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: warning: collection degraded by faults:\n", prog)
	for _, p := range ds.Provenance {
		if p.Degraded() {
			fmt.Fprintf(os.Stderr, "%s:   %s\n", prog, p)
		}
	}
}
