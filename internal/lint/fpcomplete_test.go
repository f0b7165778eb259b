package lint_test

import (
	"testing"

	"mobilebench/internal/lint"
	"mobilebench/internal/lint/linttest"
)

func TestFpComplete(t *testing.T) {
	linttest.Run(t, lint.FpComplete, nil, "fpcomplete/server")
}

// TestFpCompleteAllowlist pins that widening the allowlist silences the
// finding: the fixture's Shiny field on the allow list means a fully
// covered struct.
func TestFpCompleteAllowlist(t *testing.T) {
	cfg := lint.DefaultConfig()
	for i, r := range cfg.Fingerprint {
		if r.Struct == "server.Spec" {
			cfg.Fingerprint[i].Allow = append(append([]string(nil), r.Allow...), "Shiny")
		}
	}
	findings := linttest.Findings(t, lint.FpComplete, cfg, "fpcomplete/server")
	if len(findings) != 0 {
		t.Fatalf("allowlisted field still flagged: %v", findings)
	}
}
