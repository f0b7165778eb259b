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

// streamFold renders one BenchmarkStreamFold line per ns/op sample, with the
// same B/op and allocs/op on every line.
func streamFold(ms ...float64) string {
	var b strings.Builder
	for _, v := range ms {
		fmt.Fprintf(&b, "BenchmarkStreamFold-2   \t     150\t   %.0f ns/op\t 1900000 B/op\t    5265 allocs/op\n", v*1e6)
	}
	return b.String()
}

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
	// overlap once base's upper end is stretched by 15%.
	noisy := mustParse(t, streamFold(6.0, 7.0, 7.5, 8.5, 9.0, 10.0))
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
