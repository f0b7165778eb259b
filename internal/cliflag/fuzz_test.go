package cliflag

import (
	"flag"
	"io"
	"strings"
	"testing"

	"mobilebench/internal/sim"
)

// FuzzResilienceFlags drives the shared CLI flag surface with arbitrary
// argv vectors: registration, parsing and the derived options call must
// never panic, whatever a user types after mbchar or mbreport. Error
// returns are fine — crashes are not.
func FuzzResilienceFlags(f *testing.F) {
	f.Add("-max-retries 3 -inject crash=0.2,seed=7")
	f.Add("-checkpoint snap.mbcp -resume")
	f.Add("-run-timeout 30s -min-runs 2 -fail-fast")
	f.Add("-resume")                 // invalid: -resume without -checkpoint
	f.Add("-inject bogus=1")         // invalid spec, caught by options
	f.Add("-max-retries= -min-runs") // malformed values
	f.Add("-run-timeout 1h30m -inject crash=0.1,nan=0.1")
	f.Fuzz(func(t *testing.T, argv string) {
		fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		col := RegisterCollection(fs, 3)
		if err := fs.Parse(strings.Fields(argv)); err != nil {
			return
		}
		if opts, err := col.options(sim.Config{}, nil); err == nil && opts.Fault != nil {
			_ = opts.Fault.PlanFor("unit", 0, 0)
		}
	})
}
