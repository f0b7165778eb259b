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

// update rewrites the testdata goldens instead of comparing against them:
//
//	go test -run 'TestGoldenDigests/exact|TestGoldenCheckpointLog' -update
//
// An intended change is committed with the rewritten file and a CHANGES.md
// line that names the reason.
var update = flag.Bool("update", false, "rewrite the testdata goldens")

const (
	analysisGolden   = "testdata/analysis_exact.golden"
	checkpointGolden = "testdata/checkpoint_log.sha256"
)

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
	want, ok := readGolden(t, analysisGolden, got.Bytes())
	if !ok || bytes.Equal(got.Bytes(), want) {
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

// readGolden returns the golden file's bytes; under -update it writes got
// there instead and reports false.
func readGolden(t *testing.T, path string, got []byte) ([]byte, bool) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return nil, false
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	return want, true
}

// TestGoldenCheckpointLog pins the bytes of a checkpointed two-unit
// collection under injected aborts and NaN samples: every record, with
// its provenance and the injected-fault strings of the retried attempts,
// hashed with SHA-256.
func TestGoldenCheckpointLog(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64; on %s the compiler may fuse x*y+z into one FMA instruction, which rounds differently", runtime.GOARCH)
	}
	inj, err := ParseInjection("abort=0.5,nan=0.3,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	var units []Workload
	for _, name := range []string{"GFXBench Special", "3DMark Wild Life"} {
		w, err := BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, w)
	}
	path := filepath.Join(t.TempDir(), "collect.ckpt")
	if _, err := Characterize(Options{
		Units: units, Runs: 2, Workers: 1, MaxRetries: 3, Inject: inj, Checkpoint: path,
	}); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(log)
	got := hex.EncodeToString(sum[:]) + "\n"
	if want, ok := readGolden(t, checkpointGolden, []byte(got)); ok && got != string(want) {
		t.Errorf("checkpoint log (%d bytes) SHA-256 %s, want %s", len(log), strings.TrimSpace(got), strings.TrimSpace(string(want)))
	}
}
