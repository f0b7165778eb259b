// Command benchdiff compares two `go test -bench -benchmem` outputs taken on
// one host, base and head, each holding one sample per repeated result line
// (scripts/bench-ab.sh interleaves the two sides and then calls it):
//
//	go run ./scripts/benchdiff.go base.txt head.txt
//
// For every benchmark and each of ns/op, B/op and allocs/op it prints both
// medians, both median absolute deviations (MAD), the sample counts and the
// head/base ratio of the medians. A metric regresses under either of two
// rules. The interval rule fires when head's whole interval clears base's
// stretched by the tolerance:
//
//	median_head − MAD_head > (1 + tol) · (median_base + MAD_base)
//
// so noise within the MADs passes. It misses a real slowdown smaller than
// about tol + 2·MAD/median. The paired rule uses the interleaving: the i-th
// sample of each side comes from the same round, so each round gives one
// head/base ratio, and drift the two sides share cancels in it. It fires
// when the median ratio exceeds 1 + tol and nearly every round was slower:
// at most one round in ten was not, so with six rounds all six. (Five of
// six flagged identical code on a noisy host: single-iteration samples
// of SimulateWildLifeFastForward gave a median ratio of 1.175.) It applies
// when both sides hold the same number of samples, at least minPairs, and
// every base sample is positive.
//
// ns/op gets 15% because wall time shifts with the host; B/op and
// allocs/op are near-deterministic per build and get 10%. A benchmark on
// one side only prints as NEW or MISSING and never fails.
//
// Exit status is 1 when any metric regressed and 2 when an input cannot be
// read or holds a malformed result line.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"

	"mobilebench/internal/stats"
)

// metrics are the compared per-op measures, in result-line column order.
var metrics = [...]struct {
	unit string
	tol  float64
}{
	{"ns/op", 0.15},
	{"B/op", 0.10},
	{"allocs/op", 0.10},
}

// minPairs is the fewest rounds the paired rule judges: with fewer, one
// noisy round outweighs the rest.
const minPairs = 4

// samples holds one benchmark's values per metric, in input order. A line
// without B/op or allocs/op adds no value to that metric.
type samples [len(metrics)][]float64

// results is one parsed output: samples by benchmark name, and the names in
// first-seen order.
type results struct {
	names []string
	by    map[string]*samples
}

// benchLine matches a `go test -benchmem` result row, e.g.
// BenchmarkCharacterizeAll-4  1  80209035805 ns/op  2311719832 B/op  55077509 allocs/op
// The optional -N GOMAXPROCS suffix is not part of the name.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+([\d.]+) allocs/op)?`)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff BASE.txt HEAD.txt")
		os.Exit(2)
	}
	base, err := parseFile(os.Args[1])
	if err != nil {
		fatal(err)
	}
	head, err := parseFile(os.Args[2])
	if err != nil {
		fatal(err)
	}
	if diff(os.Stdout, base, head) {
		fmt.Printf("\nbenchdiff: head regressed past base beyond tolerance (ns %.0f%%, bytes %.0f%%, allocs %.0f%%)\n",
			metrics[0].tol*100, metrics[1].tol*100, metrics[2].tol*100)
		os.Exit(1)
	}
}

func parseFile(path string) (*results, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := parseBench(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.names) == 0 {
		return nil, fmt.Errorf("%s: no benchmark result lines", path)
	}
	return r, nil
}

// parseBench reads the benchmark result lines of r and ignores every other
// line. A matched number that does not parse is an error, never a 0.
func parseBench(r io.Reader) (*results, error) {
	out := &results{by: make(map[string]*samples)}
	s := bufio.NewScanner(r)
	for line := 1; s.Scan(); line++ {
		m := benchLine.FindStringSubmatch(s.Text())
		if m == nil {
			continue
		}
		smp := out.by[m[1]]
		if smp == nil {
			smp = new(samples)
			out.by[m[1]] = smp
			out.names = append(out.names, m[1])
		}
		for i, field := range m[2:] {
			if field == "" {
				continue
			}
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: %s %s: %w", line, m[1], metrics[i].unit, err)
			}
			smp[i] = append(smp[i], v)
		}
	}
	return out, s.Err()
}

// diff prints one line per benchmark and metric present on both sides, and
// a NEW or MISSING line per benchmark on one side only. It reports whether
// any metric regressed.
func diff(w io.Writer, base, head *results) bool {
	failed := false
	for _, name := range head.names {
		b, ok := base.by[name]
		if !ok {
			fmt.Fprintf(w, "NEW     %s (not in base)\n", name)
			continue
		}
		h := head.by[name]
		for i, m := range metrics {
			if len(b[i]) == 0 || len(h[i]) == 0 {
				continue
			}
			status := "OK     "
			if regressed(b[i], h[i], m.tol) || pairedRegressed(b[i], h[i], m.tol) {
				status = "REGRESS"
				failed = true
			}
			mb, mh := stats.Median(b[i]), stats.Median(h[i])
			ratio := "    -"
			if mb != 0 {
				ratio = fmt.Sprintf("x%.3f", mh/mb)
			}
			paired := ""
			if r, slower, ok := pairs(b[i], h[i]); ok {
				paired = fmt.Sprintf(" paired x%.3f %d/%d slower", r, slower, len(h[i]))
			}
			fmt.Fprintf(w, "%s %-44s %-9s base %11.4g ±%-9.3g head %11.4g ±%-9.3g n=%d/%d %s%s\n",
				status, name, m.unit, mb, stats.MAD(b[i]), mh, stats.MAD(h[i]), len(b[i]), len(h[i]), ratio, paired)
		}
	}
	for _, name := range base.names {
		if _, ok := head.by[name]; !ok {
			fmt.Fprintf(w, "MISSING %s (not in head)\n", name)
		}
	}
	return failed
}

// regressed reports whether head's interval [median−MAD, median+MAD] lies
// wholly above base's upper end stretched by tol. A zero base regresses only
// when head is above zero by more than its own MAD.
func regressed(base, head []float64, tol float64) bool {
	return stats.Median(head)-stats.MAD(head) > (1+tol)*(stats.Median(base)+stats.MAD(base))
}

// pairedRegressed reports whether the per-round ratios show head slower:
// their median exceeds 1 + tol and at most one round in ten was not
// slower.
func pairedRegressed(base, head []float64, tol float64) bool {
	r, slower, ok := pairs(base, head)
	return ok && r > 1+tol && slower >= len(head)-len(head)/10
}

// pairs returns the median of the per-round ratios head[i]/base[i] and how
// many rounds head was slower in. ok is false when the samples do not pair:
// unequal counts, fewer than minPairs, or a base sample that is not positive.
func pairs(base, head []float64) (median float64, slower int, ok bool) {
	if len(base) != len(head) || len(base) < minPairs {
		return 0, 0, false
	}
	ratios := make([]float64, len(base))
	for i, b := range base {
		if b <= 0 {
			return 0, 0, false
		}
		ratios[i] = head[i] / b
		if head[i] > b {
			slower++
		}
	}
	return stats.Median(ratios), slower, true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}
