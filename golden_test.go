package mobilebench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mobilebench/internal/report"
)

// Golden result digests of a one-run characterization of the 18 analysis
// units at the default seed. Any change to a simulated or reported number
// moves them. An intended output change updates the constant here and names
// the reason in CHANGES.md.
const (
	// goldenExactDigest is also perfbench's pinnedExactDigest.
	goldenExactDigest = "9e89860040156dd701b77c8676deba793f240f569ff8e584a8d4fc6df971a417"
	goldenFFDigest    = "ef9fa0f156efed9a3544fa41fbe40268fa558a63ec712e389ae6a307468003be"
)

// update rewrites testdata/analysis_exact.golden instead of comparing
// against it:
//
//	go test -run TestGoldenDigests/exact -update
//
// An intended change is committed with the rewritten file and a CHANGES.md
// line that names the reason.
var update = flag.Bool("update", false, "rewrite testdata/analysis_exact.golden")

const analysisGolden = "testdata/analysis_exact.golden"

// TestGoldenDigests pins the bytes of the exact and the fast-forwarded
// pipeline: the WriteReport text plus every unit's JSON aggregates, hashed
// the way perfbench's digestOf hashes them.
func TestGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64; on %s the compiler may fuse x*y+z into one FMA instruction, which rounds differently", runtime.GOARCH)
	}
	for _, tc := range []struct {
		name string
		ff   bool
		want string
	}{
		{"exact", false, goldenExactDigest},
		{"fast-forward", true, goldenFFDigest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Characterize(Options{Runs: 1, Workers: 2, FastForward: tc.ff})
			if err != nil {
				t.Fatal(err)
			}
			if got := goldenDigest(t, c); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
			if !tc.ff {
				t.Run("analysis", func(t *testing.T) { requireAnalysisGolden(t, c) })
			}
		})
	}
}

// goldenDigest is SHA-256 over the SHA-256 of the report, then each unit's
// name and JSON aggregates in dataset order.
func goldenDigest(t *testing.T, c *Characterization) string {
	t.Helper()
	rep := sha256.New()
	if err := c.WriteReport(rep); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(rep.Sum(nil))
	for _, name := range c.Names() {
		agg, err := c.Aggregates(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(agg)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(name))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// requireAnalysisGolden renders report.WriteAnalysis (the mbcalibrate
// -analysis text) of the collection and compares it line by line with
// testdata/analysis_exact.golden, naming every line that moved.
func requireAnalysisGolden(t *testing.T, c *Characterization) {
	var got bytes.Buffer
	if err := report.WriteAnalysis(&got, c.ds); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(analysisGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(analysisGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(analysisGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	var diff strings.Builder
	moved := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			moved++
			fmt.Fprintf(&diff, "line %d:\n  got: %s\n want: %s\n", i+1, g, w)
		}
	}
	t.Fatalf("%s: %d lines moved (%d lines, want %d):\n%s", analysisGolden, moved, len(gl), len(wl), diff.String())
}
