// Up-front option validation: malformed collection options fail loudly
// with a typed error naming the field, instead of being silently clamped
// into a surprising default.
package core

import (
	"fmt"
	"math"

	"mobilebench/internal/sim"
)

// OptionError reports one invalid collection option.
type OptionError struct {
	// Field names the offending option (e.g. "Runs", "Sim.TickSec").
	Field string
	// Value is the rejected value.
	Value any
	// Reason says what a valid value looks like.
	Reason string
}

// Error implements error.
func (e *OptionError) Error() string {
	return fmt.Sprintf("core: invalid option %s=%v: %s", e.Field, e.Value, e.Reason)
}

// Validate checks the options before any simulation starts. Zero values
// remain "use the default" (Runs 0 → 3, Workers 0 → all cores, TickSec 0 →
// 0.1 s); explicitly out-of-range values — negative counts, non-finite or
// negative intervals, duplicate unit names, a MinRuns above Runs — return
// a *OptionError instead of being silently defaulted.
func (o Options) Validate() error {
	if o.Runs < 0 {
		return &OptionError{"Runs", o.Runs, "must be >= 0 (0 selects the default of 3)"}
	}
	if o.Workers < 0 {
		return &OptionError{"Workers", o.Workers, "must be >= 0 (0 selects one worker per CPU)"}
	}
	if t := o.Sim.TickSec; t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return &OptionError{"Sim.TickSec", t, "must be a finite value >= 0 (0 selects the default of 0.1 s)"}
	}
	r := o.Resilience
	if r.MaxRetries < 0 {
		return &OptionError{"Resilience.MaxRetries", r.MaxRetries, "must be >= 0"}
	}
	if r.RunTimeout < 0 {
		return &OptionError{"Resilience.RunTimeout", r.RunTimeout, "must be >= 0 (0 disables the timeout)"}
	}
	if r.BackoffBase < 0 {
		return &OptionError{"Resilience.BackoffBase", r.BackoffBase, "must be >= 0 (0 selects 100 ms)"}
	}
	if r.MinRuns < 0 {
		return &OptionError{"Resilience.MinRuns", r.MinRuns, "must be >= 0 (0 requires every run)"}
	}
	runs := o.Runs
	if runs == 0 {
		runs = 3
	}
	if r.MinRuns > runs {
		return &OptionError{"Resilience.MinRuns", r.MinRuns,
			fmt.Sprintf("cannot exceed the %d runs collected per unit", runs)}
	}
	if m := o.Sim.TraceMode; m < sim.TraceFull || m > sim.TraceAuto {
		return &OptionError{"Sim.TraceMode", m, "must be TraceFull, TraceStreamed or TraceAuto"}
	}
	if o.Resume && o.Checkpoint == "" {
		return &OptionError{"Resume", o.Resume, "requires Checkpoint to name the checkpoint log to resume from"}
	}
	if o.Checkpoint != "" && o.Sim.TraceMode != sim.TraceFull {
		return &OptionError{"Checkpoint", o.Checkpoint,
			"checkpointed collection requires Sim.TraceMode == TraceFull (checkpoint records restore full traces)"}
	}
	seen := make(map[string]bool, len(o.Units))
	for _, u := range o.Units {
		if u.Name == "" {
			return &OptionError{"Units", u.Name, "every unit needs a non-empty name"}
		}
		if seen[u.Name] {
			return &OptionError{"Units", u.Name, "duplicate unit name"}
		}
		seen[u.Name] = true
	}
	return nil
}
