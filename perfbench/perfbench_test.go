package main

import (
	"context"
	"encoding/json"
	"maps"
	"math"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"
	"time"
)

// roundBlock is the length of jobGen's exact mix block.
const roundBlock = 10

func TestSameSeedSameInputs(t *testing.T) {
	inputs := func(seed uint64) []byte {
		jobs := newJobGen(seed)
		var rounds []round
		for range 3 * roundBlock {
			rounds = append(rounds, jobs.next())
		}
		recs := newRecordGen(seed, streamRecords)
		var records []any
		for range 50 {
			records = append(records, recs.next())
		}
		b, err := json.Marshal([]any{simSeedFor(seed), rounds, prefixRecords(seed), records})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, seed := range []uint64{0, 1, 7} {
		if a, b := inputs(seed), inputs(seed); string(a) != string(b) {
			t.Errorf("seed %d generated different inputs on two calls", seed)
		}
	}
	if string(inputs(1)) == string(inputs(2)) {
		t.Error("seeds 1 and 2 generated identical inputs")
	}
}

func TestRoundMixIsExactPerBlock(t *testing.T) {
	g := newJobGen(3)
	for block := 0; block < 4; block++ {
		count := make(map[string]int)
		for i := 0; i < roundBlock; i++ {
			rd := g.next()
			count[rd.Kind]++
			if i == 0 && rd.Kind != roundCold {
				t.Fatalf("block %d starts with a %s round", block, rd.Kind)
			}
			if rd.Kind == roundCoalesce && !sameSpec(t, rd) {
				t.Fatal("coalesce round submits two different specs")
			}
		}
		if count[roundCold] != 4 || count[roundCoalesce] != 2 || count[roundCached] != 4 {
			t.Fatalf("block %d mix = %v", block, count)
		}
	}
}

func sameSpec(t *testing.T, rd round) bool {
	a, err := json.Marshal(rd.Specs[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rd.Specs[1])
	if err != nil {
		t.Fatal(err)
	}
	return string(a) == string(b)
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, nameRE)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.name, d.unit, unitRE)
		}
		if seen[d.name] {
			t.Errorf("metric %s is defined twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json's metric and workload lists
// to the ones the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	render := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.name+" "+d.unit)
		}
		sort.Strings(out)
		return out
	}
	fromJSON := func(ms []struct{ Name, Unit string }) []string {
		var defs []metricDef
		for _, m := range ms {
			defs = append(defs, metricDef{m.Name, m.Unit})
		}
		return render(defs)
	}
	if got, want := fromJSON(spec.EndToEnd), render(endToEnd); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json end_to_end = %v, program reports %v", got, want)
	}
	if got, want := fromJSON(spec.PerLayer), render(perLayer); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json per_layer = %v, program reports %v", got, want)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, sortedKeys(); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads = %v, program runs %v", got, want)
	}
}

func sortedKeys() []string { return slices.Sorted(maps.Keys(workloads)) }

func TestQuantileReportsCount(t *testing.T) {
	var l Latencies
	for i := 1; i <= 100; i++ {
		l.Add(time.Duration(i) * time.Millisecond)
	}
	q := l.Quantile(0.9)
	if q.N != 100 || q.Beyond != 10 || math.Abs(q.Value-90.1) > 1e-9 {
		t.Fatalf("p90 = %+v, want 90.1 ms over 100 samples with 10 beyond", q)
	}
	// Failures stay in the sample and sort above every completion.
	for range 20 {
		l.AddFailed()
	}
	q = l.Quantile(0.9)
	if q.N != 120 || !math.IsInf(q.Value, 1) {
		t.Fatalf("p90 with 20 failures of 120 = %+v, want +Inf over 120 samples", q)
	}
	if q := l.Quantile(0.5); q.N != 120 || q.Value != 60.5 || q.Beyond != 60 {
		t.Fatalf("p50 with failures = %+v, want 60.5 ms with 60 beyond", q)
	}
	var empty Latencies
	if q := empty.Quantile(0.5); q.N != 0 || !math.IsNaN(q.Value) {
		t.Fatalf("empty p50 = %+v", q)
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"math.archExp", "math.Pow", "mobilebench/internal/xrand.(*ZipfGen).Draw", "mobilebench/internal/gpu.(*Model).Step"}, "xrand"},
		{[]string{"mobilebench/internal/trace.(*Buffer).Add", "mobilebench/internal/sim.(*Engine).runWith"}, "profiler"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "mobilebench/internal/cache.(*Hierarchy).Access"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.schedule"}, "runtime"},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, "other"},
		{[]string{"mobilebench/internal/cosim.(*Session).Step"}, "other"},
		{[]string{"encoding/json.Marshal", "mobilebench/internal/server.writeJSON"}, "server"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestLedgerDecodesProfile profiles a busy loop and checks the decoder
// charges its samples and the ledger closes.
func TestLedgerDecodesProfile(t *testing.T) {
	l, err := startLedger()
	if err != nil {
		t.Fatal(err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	var total Ledger
	if err := l.stop(&total); err != nil {
		t.Fatal(err)
	}
	if total.ProfiledCPU() < 0.2 || total.Self["other"] < 0.2 {
		t.Fatalf("profile charged %v (x=%v)", total.Self, x)
	}
	if e := total.ClosureErr(); e > ledgerBound {
		t.Fatalf("ledger gap %.3f > %.3f: profiled %.3f s, kernel %.3f s", e, ledgerBound, total.ProfiledCPU(), total.CPUS)
	}
}

// TestUnseenSeedPassesChecks runs every workload briefly, traced and not,
// at a seed not used while the benchmark was written.
func TestUnseenSeedPassesChecks(t *testing.T) {
	const seed = 60613
	for _, name := range sortedKeys() {
		for _, traced := range []bool{false, true} {
			if testing.Short() && (name == "characterize-exact" || traced) {
				continue
			}
			rep, err := workloads[name](context.Background(), runOpts{seed: seed, seconds: 2 * time.Second, traced: traced, work: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
			}
		}
	}
}

func TestPinnedDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("a full exact characterization")
	}
	rep, err := runCharacterize(context.Background(), runOpts{seed: 0, seconds: time.Second, work: t.TempDir()}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("seed 0 characterize-exact: %v", rep.Problems)
	}
}
