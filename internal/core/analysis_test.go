package core_test

import (
	"bytes"
	"io"
	"testing"

	"mobilebench/internal/core"
	"mobilebench/internal/report"
)

// TestAnalysisThreeRunGolden pins the CLI views EXPERIMENTS.md's numbers
// are read from, each rendered over the package's shared three-run
// dataset into its own testdata golden:
//   - analysis_3run.golden: report.WriteAnalysis (`mbcalibrate -analysis`);
//   - report_3run.golden: report.WriteReport (`mbreport`), Figure 1,
//     Tables III, V and VI and the observations;
//   - figure2_3run.golden: report.Figure2 at 100 samples (`mbtrace`), the
//     Figure 2 profiles and their means.
//
// Rewrite them with go test ./internal/core -run Golden -update.
func TestAnalysisThreeRunGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		write  func(io.Writer, *core.Dataset) error
	}{
		{"analysis_3run.golden", report.WriteAnalysis},
		{"report_3run.golden", report.WriteReport},
		{"figure2_3run.golden", func(w io.Writer, d *core.Dataset) error {
			s, err := report.Figure2(d, 100)
			if err != nil {
				return err
			}
			_, err = io.WriteString(w, s)
			return err
		}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var b bytes.Buffer
			if err := tc.write(&b, core.SharedDataset(t)); err != nil {
				t.Fatal(err)
			}
			core.RequireGoldenBytes(t, tc.golden, b.Bytes())
		})
	}
}
