package core_test

import (
	"bytes"
	"testing"

	"mobilebench/internal/core"
	"mobilebench/internal/report"
)

// TestAnalysisThreeRunGolden pins report.WriteAnalysis over the package's
// shared three-run dataset, the text EXPERIMENTS.md's numbers come from
// (`mbcalibrate -analysis -runs 3`), in testdata/analysis_3run.golden.
// Rewrite it with go test ./internal/core -run Golden -update.
func TestAnalysisThreeRunGolden(t *testing.T) {
	var b bytes.Buffer
	if err := report.WriteAnalysis(&b, core.SharedDataset(t)); err != nil {
		t.Fatal(err)
	}
	core.RequireGoldenBytes(t, "analysis_3run.golden", b.Bytes())
}
