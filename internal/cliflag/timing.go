// The shared external-timing-model flags: -timing-model names a child
// command serving the cosim protocol, -timing-replay a directory for its
// deterministic replay log. Wired identically into mbsim, mbchar and the
// mbserved worker, so `-timing-model "mbtiming -model qdram"` means the
// same collection everywhere.
package cliflag

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mobilebench/internal/cosim"
	"mobilebench/internal/soc"
)

// Timing holds the values of the shared external-timing flags.
type Timing struct {
	// ModelCmd is the -timing-model child command line ("" = in-process).
	ModelCmd string
	// ReplayDir is the -timing-replay log directory ("" disables replay).
	ReplayDir string
}

// RegisterTiming registers the external-timing flags on fs and returns the
// value holder; read it after fs.Parse.
func RegisterTiming(fs *flag.FlagSet) *Timing {
	t := &Timing{}
	fs.StringVar(&t.ModelCmd, "timing-model", "",
		`external timing-model command serving the cosim protocol, e.g. "mbtiming -model qdram" ("" = in-process models)`)
	fs.StringVar(&t.ReplayDir, "timing-replay", "",
		"directory for the external model's deterministic replay log; resumed runs replay logged replies instead of re-asking")
	return t
}

// Validate rejects flag combinations before any child is spawned. A nil
// Timing is valid.
func (t *Timing) Validate() error {
	if t != nil && t.ReplayDir != "" && t.ModelCmd == "" {
		return fmt.Errorf("-timing-replay requires -timing-model to name the external model")
	}
	return nil
}

// Provider builds the cosim supervisor, a sim.TimingProvider, for the
// platform (nil = the default Snapdragon 888 HDK, matching
// sim.Config.Resolve): spawning the child, completing the handshake and
// opening the replay log. It returns (nil, nil) when -timing-model is
// unset — callers must then leave sim.Config.Timing nil rather than
// storing a typed nil interface. Close the supervisor after the
// collection. A nil Timing selects the in-process models too.
func (t *Timing) Provider(plat *soc.Platform) (*cosim.Supervisor, error) {
	return t.provider(plat, true)
}

// Fingerprint probes the configured model for its timing identity — the
// sim.TimingProvider.Fingerprint() value collections under it carry — by
// spawning the child, completing the handshake and closing it again. It
// returns "" when -timing-model is unset, and for an exact model (which
// shares the in-process identity). Coordinator-mode mbserved uses it to
// fold the fleet's timing identity into cache keys without keeping a
// long-lived child of its own: a coordinator never executes specs.
func (t *Timing) Fingerprint(plat *soc.Platform) (string, error) {
	p, err := t.provider(plat, false)
	if err != nil || p == nil {
		return "", err
	}
	defer p.Close()
	return p.Fingerprint(), nil
}

func (t *Timing) provider(plat *soc.Platform, withReplay bool) (*cosim.Supervisor, error) {
	if t == nil || t.ModelCmd == "" {
		return nil, nil
	}
	if plat == nil {
		plat = soc.Snapdragon888HDK()
	}
	cfg := cosim.Config{
		Command: strings.Fields(t.ModelCmd),
		MemHW:   plat.Memory,
		StorHW:  plat.Storage,
		Stderr:  os.Stderr,
	}
	if withReplay && t.ReplayDir != "" {
		if err := os.MkdirAll(t.ReplayDir, 0o755); err != nil {
			return nil, err
		}
		cfg.ReplayPath = filepath.Join(t.ReplayDir, "cosim-replay.log")
	}
	return cosim.NewSupervisor(cfg)
}
