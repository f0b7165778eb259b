// Up-front option validation: malformed collection options fail loudly
// with a typed error naming the field, instead of being silently clamped
// into a surprising default.
package core

import "fmt"

// OptionError reports one invalid collection option.
type OptionError struct {
	// Field names the offending option (e.g. "Runs",
	// "Resilience.MinRuns").
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
// remain "use the default" (Runs 0 → 3, Workers 0 → all cores);
// explicitly out-of-range values — negative counts or durations, duplicate
// unit names, a MinRuns above Runs — return a *OptionError instead of
// being silently defaulted.
func (o Options) Validate() error {
	if o.Runs < 0 {
		return &OptionError{"Runs", o.Runs, "must be >= 0 (0 selects the default of 3)"}
	}
	if o.Workers < 0 {
		return &OptionError{"Workers", o.Workers, "must be >= 0 (0 selects one worker per CPU)"}
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
	if runs := o.runCount(); r.MinRuns > runs {
		return &OptionError{"Resilience.MinRuns", r.MinRuns,
			fmt.Sprintf("cannot exceed the %d runs collected per unit", runs)}
	}
	if o.Resume && o.Checkpoint == "" {
		return &OptionError{"Resume", o.Resume, "requires Checkpoint to name the checkpoint log to resume from"}
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
