package lint_test

import (
	"testing"

	"mobilebench/internal/lint"
	"mobilebench/internal/lint/linttest"
)

func TestWireFrame(t *testing.T) {
	linttest.Run(t, lint.WireFrame, nil, "wireframe/dist")
}

// TestWireFrameSharedCodec: the shared framing package is in the default
// scope, so an unguarded growth loop there is flagged.
func TestWireFrameSharedCodec(t *testing.T) {
	linttest.Run(t, lint.WireFrame, nil, "wireframe/wire")
}

// TestWireFrameScope pins that packages outside the configured wire
// segments are untouched: the same hostile shapes in a non-wire path
// produce no findings.
func TestWireFrameScope(t *testing.T) {
	cfg := lint.DefaultConfig()
	cfg.WireframePkgs = []string{"nosuchsegment"}
	findings := runOn(t, lint.WireFrame, cfg, "wireframe/dist")
	if len(findings) != 0 {
		t.Fatalf("non-wire package still flagged: %v", findings)
	}
}
