package subset

import (
	"context"
	"math"
	"reflect"
	"testing"

	"mobilebench/internal/cluster"
)

// four benchmarks at unit-square corners plus one at the centre.
func testBenchmarks() []Benchmark {
	return []Benchmark{
		{Name: "a", RuntimeSec: 10, Features: []float64{0, 0}},
		{Name: "b", RuntimeSec: 20, Features: []float64{1, 0}},
		{Name: "c", RuntimeSec: 30, Features: []float64{0, 1}},
		{Name: "d", RuntimeSec: 40, Features: []float64{1, 1}},
		{Name: "e", RuntimeSec: 50, Features: []float64{0.5, 0.5}},
	}
}

func TestRuntimeSec(t *testing.T) {
	rt, err := RuntimeSec(testBenchmarks(), []string{"a", "c"})
	if err != nil || rt != 40 {
		t.Fatalf("runtime = %g, err = %v", rt, err)
	}
	if _, err := RuntimeSec(testBenchmarks(), []string{"nope"}); err == nil {
		t.Fatal("unknown member accepted")
	}
}

func TestDuplicateNamesRejected(t *testing.T) {
	bs := []Benchmark{{Name: "x"}, {Name: "x"}}
	if _, err := RuntimeSec(bs, []string{"x"}); err == nil {
		t.Fatal("duplicate benchmark names accepted")
	}
}

func TestReductions(t *testing.T) {
	sets := []Set{{Name: "s1", Members: []string{"a"}}, {Name: "s2", Members: []string{"a", "b", "c"}}}
	reds, err := Reductions(testBenchmarks(), sets)
	if err != nil {
		t.Fatal(err)
	}
	// Full runtime 150.
	if math.Abs(reds[0].ReductionFrac-(1-10.0/150)) > 1e-12 {
		t.Fatalf("s1 reduction = %g", reds[0].ReductionFrac)
	}
	if math.Abs(reds[1].RuntimeSec-60) > 1e-12 {
		t.Fatalf("s2 runtime = %g", reds[1].RuntimeSec)
	}
}

func TestReductionsEmptyFullSet(t *testing.T) {
	if _, err := Reductions(nil, nil); err == nil {
		t.Fatal("empty full set accepted")
	}
}

func TestTotalMinDistance(t *testing.T) {
	// Subset {e} (centre): each corner is sqrt(0.5) away.
	d, err := TotalMinDistance(testBenchmarks(), []string{"e"})
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * math.Sqrt(0.5)
	if math.Abs(d-want) > 1e-9 {
		t.Fatalf("distance = %g, want %g", d, want)
	}
	// The full set has distance 0.
	d, _ = TotalMinDistance(testBenchmarks(), []string{"a", "b", "c", "d", "e"})
	if d != 0 {
		t.Fatalf("full-set distance = %g, want 0", d)
	}
}

func TestTotalMinDistanceErrors(t *testing.T) {
	if _, err := TotalMinDistance(testBenchmarks(), nil); err == nil {
		t.Fatal("empty subset accepted")
	}
	if _, err := TotalMinDistance(testBenchmarks(), []string{"zz"}); err == nil {
		t.Fatal("unknown member accepted")
	}
}

func TestMonotoneUnderGrowth(t *testing.T) {
	// Adding a benchmark can only reduce (or keep) the total min distance.
	bs := testBenchmarks()
	prev := math.Inf(1)
	members := []string{}
	for _, add := range []string{"e", "a", "b", "c", "d"} {
		members = append(members, add)
		d, err := TotalMinDistance(bs, members)
		if err != nil {
			t.Fatal(err)
		}
		if d > prev+1e-12 {
			t.Fatalf("distance grew when adding %s: %g -> %g", add, prev, d)
		}
		prev = d
	}
	if prev != 0 {
		t.Fatalf("full set distance = %g, want 0", prev)
	}
}

func TestGrowthCurve(t *testing.T) {
	s := Set{Name: "test", Members: []string{"e", "a"}}
	curve, err := GrowthCurveContext(context.Background(), testBenchmarks(), s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 5 {
		t.Fatalf("curve length = %d, want 5", len(curve))
	}
	if curve[0].Added != "e" || curve[1].Added != "a" {
		t.Fatal("set members must be added first, in order")
	}
	if curve[4].Distance != 0 {
		t.Fatalf("full curve should end at 0, got %g", curve[4].Distance)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Distance > curve[i-1].Distance+1e-12 {
			t.Fatal("curve not non-increasing")
		}
		if curve[i].N != i+1 {
			t.Fatal("curve indices wrong")
		}
	}
}

func TestNaive(t *testing.T) {
	bs := testBenchmarks()
	// Clusters: {a, b}, {c, d}, {e}: the naive set takes the fastest of
	// each: a (10), c (30), e (50).
	assign := cluster.Assignment{0, 0, 1, 1, 2}
	set, err := Naive(bs, assign)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Members) != 3 {
		t.Fatalf("members = %v", set.Members)
	}
	// Ordered by ascending runtime.
	if set.Members[0] != "a" || set.Members[1] != "c" || set.Members[2] != "e" {
		t.Fatalf("members = %v, want [a c e]", set.Members)
	}
	if !set.Contains("a") || set.Contains("b") {
		t.Fatal("Contains wrong")
	}
}

func TestNaiveAssignmentMismatch(t *testing.T) {
	if _, err := Naive(testBenchmarks(), cluster.Assignment{0, 1}); err == nil {
		t.Fatal("short assignment accepted")
	}
}

func TestGreedy(t *testing.T) {
	set, err := Greedy(testBenchmarks(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// The centre point minimizes the total distance for a single pick.
	if set.Members[0] != "e" {
		t.Fatalf("greedy-1 picked %v, want e", set.Members)
	}
	set5, err := Greedy(testBenchmarks(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(set5.Members) != 5 {
		t.Fatal("greedy-5 should select everything")
	}
	if _, err := Greedy(testBenchmarks(), 0); err == nil {
		t.Fatal("size 0 accepted")
	}
	if _, err := Greedy(testBenchmarks(), 9); err == nil {
		t.Fatal("size > n accepted")
	}
}

func TestUnderBudget(t *testing.T) {
	set, err := UnderBudget(testBenchmarks(), 35)
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := RuntimeSec(testBenchmarks(), set.Members)
	if rt > 35 {
		t.Fatalf("budget exceeded: %g > 35", rt)
	}
	if len(set.Members) == 0 {
		t.Fatal("budget 35 should admit at least one benchmark")
	}
	if _, err := UnderBudget(testBenchmarks(), 5); err == nil {
		t.Fatal("impossible budget accepted")
	}
}

func TestUnderBudgetPrefersRepresentative(t *testing.T) {
	// With budget 50, picking e (runtime 50) beats any single corner.
	set, err := UnderBudget(testBenchmarks(), 50)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range set.Members {
		if m == "e" {
			found = true
		}
	}
	if !found {
		t.Fatalf("budget pick %v should contain the centre", set.Members)
	}
}

func TestGrowthCurveContextMatchesSequential(t *testing.T) {
	s := Set{Name: "test", Members: []string{"e", "a"}}
	seq, err := GrowthCurveContext(context.Background(), testBenchmarks(), s, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 8} {
		got, err := GrowthCurveContext(context.Background(), testBenchmarks(), s, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, seq) {
			t.Fatalf("workers=%d: parallel curve differs from sequential", workers)
		}
	}
}

func TestGrowthCurveContextUnknownMember(t *testing.T) {
	s := Set{Name: "bad", Members: []string{"nope"}}
	if _, err := GrowthCurveContext(context.Background(), testBenchmarks(), s, 4); err == nil {
		t.Fatal("unknown member accepted")
	}
}
