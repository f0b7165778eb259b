package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func mustParse(t *testing.T, in string) *results {
	t.Helper()
	r, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// benchLines renders one result line of the named benchmark per ns/op
// sample (in ms, in round order), with the same B/op and allocs/op on
// every line.
func benchLines(name string, ms ...float64) string {
	var b strings.Builder
	for _, v := range ms {
		fmt.Fprintf(&b, "%s-2   \t     150\t   %.0f ns/op\t 1900000 B/op\t    5265 allocs/op\n", name, v*1e6)
	}
	return b.String()
}

func streamFold(ms ...float64) string { return benchLines("BenchmarkStreamFold", ms...) }

func TestParseBench(t *testing.T) {
	r := mustParse(t, `goos: linux
goarch: amd64
pkg: mobilebench/internal/cluster
BenchmarkClusterSweep-2   	     100	   9000000 ns/op	  640000 B/op	    3000 allocs/op
BenchmarkZipfGenDraw/texture-16         	60000000	        20.5 ns/op
BenchmarkClusterSweep   	     100	  11000000 ns/op	  660000 B/op	    3100 allocs/op
BenchmarkClusterSweep-2   	     100	  10000000 ns/op	  650000 B/op
PASS
ok  	mobilebench/internal/cluster	3.1s
`)
	if got := strings.Join(r.names, ","); got != "BenchmarkClusterSweep,BenchmarkZipfGenDraw/texture" {
		t.Fatalf("names = %s", got)
	}
	sweep := r.by["BenchmarkClusterSweep"]
	want := samples{{9e6, 11e6, 10e6}, {640000, 660000, 650000}, {3000, 3100}}
	if fmt.Sprint(*sweep) != fmt.Sprint(want) {
		t.Errorf("ClusterSweep samples = %v, want %v", *sweep, want)
	}
	zipf := r.by["BenchmarkZipfGenDraw/texture"]
	if fmt.Sprint(*zipf) != fmt.Sprint(samples{{20.5}, nil, nil}) {
		t.Errorf("ZipfGenDraw samples = %v, want ns/op only", *zipf)
	}
}

func TestParseBenchMalformedNumberFails(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX-2  10  1.2.3 ns/op  64 B/op  2 allocs/op",
		"BenchmarkX-2  10  100 ns/op  6..4 B/op  2 allocs/op",
		"BenchmarkX-2  10  100 ns/op  64 B/op  .2.0 allocs/op",
	} {
		if _, err := parseBench(strings.NewReader(line)); err == nil {
			t.Errorf("%q parsed without error", line)
		}
	}
}

func TestDiffIntervalRule(t *testing.T) {
	// Interleaved BenchmarkStreamFold samples (ms) on one 2-CPU host:
	// before the pruned K-means/incremental PAM change and after it.
	before := mustParse(t, streamFold(9.29, 9.41, 9.48, 9.52, 9.60, 9.71))
	after := mustParse(t, streamFold(6.04, 6.62, 6.88, 6.94, 7.31, 8.05))

	var out bytes.Buffer
	if !diff(&out, after, before) {
		t.Errorf("a 37%% slower head passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESS BenchmarkStreamFold") ||
		!strings.Contains(out.String(), "n=6/6 x1.375") {
		t.Errorf("output lacks the REGRESS line with n and ratio:\n%s", out.String())
	}
	out.Reset()
	if diff(&out, before, after) {
		t.Errorf("a faster head failed:\n%s", out.String())
	}

	// Noise: head's median is 16% above base's, but the two intervals
	// overlap once base's upper end is stretched by 15%, and head was
	// faster in two of the six rounds.
	noisy := mustParse(t, streamFold(9.0, 6.0, 10.0, 7.0, 8.5, 7.5))
	out.Reset()
	if diff(&out, after, noisy) {
		t.Errorf("noise within the MADs failed:\n%s", out.String())
	}
}

func TestDiffZeroBaseBytes(t *testing.T) {
	line := func(n int) string {
		return fmt.Sprintf("BenchmarkDraw-2  1000  20 ns/op  %d B/op  %d allocs/op\n", n, n/16)
	}
	zero := mustParse(t, strings.Repeat(line(0), 3))
	if diff(new(bytes.Buffer), zero, zero) {
		t.Error("zero B/op against zero B/op failed")
	}
	grew := mustParse(t, strings.Repeat(line(16), 3))
	var out bytes.Buffer
	if !diff(&out, zero, grew) {
		t.Errorf("0 -> 16 B/op passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "    -") {
		t.Errorf("ratio against a zero base should print as -:\n%s", out.String())
	}
}

func TestDiffNewAndMissingNeverFail(t *testing.T) {
	base := mustParse(t, "BenchmarkOld-2  10  100 ns/op  64 B/op  2 allocs/op\n")
	head := mustParse(t, "BenchmarkNew-2  10  900 ns/op  640 B/op  20 allocs/op\n")
	var out bytes.Buffer
	if diff(&out, base, head) {
		t.Errorf("NEW/MISSING failed the diff:\n%s", out.String())
	}
	for _, want := range []string{"NEW     BenchmarkNew", "MISSING BenchmarkOld"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestDiffPairedRule(t *testing.T) {
	// The slowdown the interval rule missed: six rounds of
	// BenchmarkClusterSweep with the recorded medians 7.23 -> 9.11 ms and
	// MADs 0.66 and 0.58 ms, in round order, where both sides drift
	// together from round to round. head's interval starts at 8.53 ms,
	// under base's stretched upper end of 9.07 ms, but every round's
	// head/base ratio is 1.22 or more.
	base := mustParse(t, benchLines("BenchmarkClusterSweep", 7.10, 6.40, 7.89, 7.36, 8.20, 6.57))
	head := mustParse(t, benchLines("BenchmarkClusterSweep", 9.00, 8.40, 9.69, 9.22, 10.00, 8.53))
	b, h := base.by["BenchmarkClusterSweep"][0], head.by["BenchmarkClusterSweep"][0]
	if regressed(b, h, metrics[0].tol) {
		t.Fatal("the interval rule alone now catches this case; it no longer shows the paired rule's use")
	}
	var out bytes.Buffer
	if !diff(&out, base, head) {
		t.Errorf("a +26%% slowdown slower in every round passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESS BenchmarkClusterSweep") ||
		!strings.Contains(out.String(), "paired x1.260 6/6 slower") {
		t.Errorf("output lacks the REGRESS line with the paired ratio:\n%s", out.String())
	}

	// Identical code on both sides (bench-ab.sh HEAD HEAD), single-iteration
	// BenchmarkSimulateWildLifeFastForward samples on a noisy 2-CPU host:
	// the median ratio is 1.175, but one round of six was faster.
	out.Reset()
	if diff(&out,
		mustParse(t, benchLines("BenchmarkSimulateWildLifeFastForward", 34.76, 29.34, 38.56, 25.92, 24.19, 23.65)),
		mustParse(t, benchLines("BenchmarkSimulateWildLifeFastForward", 36.49, 36.72, 30.97, 28.48, 33.95, 29.76))) {
		t.Errorf("identical code slower in five of six rounds failed:\n%s", out.String())
	}

	// Too few rounds, or unequal counts, do not pair: the interval rule
	// alone judges them.
	out.Reset()
	if diff(&out, mustParse(t, benchLines("BenchmarkClusterSweep", 7.10, 6.40, 7.89)),
		mustParse(t, benchLines("BenchmarkClusterSweep", 9.00, 8.40, 9.69))) {
		t.Errorf("three rounds were judged by the paired rule:\n%s", out.String())
	}
	out.Reset()
	if diff(&out, base, mustParse(t, benchLines("BenchmarkClusterSweep", 9.00, 8.40, 9.69, 9.22, 10.00))) {
		t.Errorf("unequal sample counts were paired:\n%s", out.String())
	}
}
