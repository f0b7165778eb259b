// Package subset implements the paper's benchmark-subsetting analysis
// (Section VI-B): the Naive, Select and Select+GPU reduced benchmark sets,
// runtime-reduction accounting (Table VI), and the representativeness
// technique of Yi et al. — the total minimum Euclidean distance between
// benchmarks outside the subset and their nearest subset member (Figure 7).
package subset

import (
	"context"
	"fmt"
	"sort"

	"mobilebench/internal/cluster"
	"mobilebench/internal/par"
	"mobilebench/internal/stats"
)

// Benchmark is one candidate for subsetting: a name, its runtime and its
// normalized feature vector.
type Benchmark struct {
	Name       string
	RuntimeSec float64
	// Features is the benchmark's performance-metric vector, already
	// normalized per the Yi et al. procedure.
	Features []float64
	// Group optionally records extra selection context (e.g. suite).
	Group string
}

// Set is a named reduced benchmark set.
type Set struct {
	Name string
	// Members lists benchmark names in selection order (the order Figure 7
	// adds them).
	Members []string
}

// Contains reports whether the set includes the named benchmark.
func (s Set) Contains(name string) bool {
	for _, m := range s.Members {
		if m == name {
			return true
		}
	}
	return false
}

// byName indexes benchmarks, preserving input order.
type byName struct {
	list  []Benchmark
	index map[string]int
}

func indexBenchmarks(bs []Benchmark) (*byName, error) {
	idx := &byName{list: bs, index: make(map[string]int, len(bs))}
	for i, b := range bs {
		if _, dup := idx.index[b.Name]; dup {
			return nil, fmt.Errorf("subset: duplicate benchmark %q", b.Name)
		}
		idx.index[b.Name] = i
	}
	return idx, nil
}

func (x *byName) get(name string) (Benchmark, error) {
	i, ok := x.index[name]
	if !ok {
		return Benchmark{}, fmt.Errorf("subset: unknown benchmark %q", name)
	}
	return x.list[i], nil
}

// RuntimeSec returns the total runtime of the named members.
func RuntimeSec(bs []Benchmark, members []string) (float64, error) {
	idx, err := indexBenchmarks(bs)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, m := range members {
		b, err := idx.get(m)
		if err != nil {
			return 0, err
		}
		total += b.RuntimeSec
	}
	return total, nil
}

// Reduction holds Table VI's accounting for one set.
type Reduction struct {
	Set        Set
	RuntimeSec float64
	// ReductionFrac is 1 - subset runtime / full runtime.
	ReductionFrac float64
}

// Reductions computes runtime reductions of the sets against the full
// benchmark list.
func Reductions(bs []Benchmark, sets []Set) ([]Reduction, error) {
	full := 0.0
	for _, b := range bs {
		full += b.RuntimeSec
	}
	if full <= 0 {
		return nil, fmt.Errorf("subset: full set has no runtime")
	}
	out := make([]Reduction, 0, len(sets))
	for _, s := range sets {
		rt, err := RuntimeSec(bs, s.Members)
		if err != nil {
			return nil, err
		}
		out = append(out, Reduction{Set: s, RuntimeSec: rt, ReductionFrac: 1 - rt/full})
	}
	return out, nil
}

// TotalMinDistance is the Yi et al. representativeness measure: for every
// benchmark NOT in the subset, the Euclidean distance to its nearest subset
// member, summed. Smaller means the subset represents the full set better.
func TotalMinDistance(bs []Benchmark, members []string) (float64, error) {
	idx, err := indexBenchmarks(bs)
	if err != nil {
		return 0, err
	}
	inSet := make(map[string]bool, len(members))
	var sel []Benchmark
	for _, m := range members {
		b, err := idx.get(m)
		if err != nil {
			return 0, err
		}
		inSet[m] = true
		sel = append(sel, b)
	}
	if len(sel) == 0 {
		return 0, fmt.Errorf("subset: empty subset")
	}
	total := 0.0
	for _, b := range bs {
		if inSet[b.Name] {
			continue
		}
		min := -1.0
		for _, s := range sel {
			d := stats.Euclidean(b.Features, s.Features)
			if min < 0 || d < min {
				min = d
			}
		}
		total += min
	}
	return total, nil
}

// CurvePoint is one step of a Figure 7 growth curve.
type CurvePoint struct {
	// N is the subset size after this step.
	N int
	// Added is the benchmark added at this step.
	Added string
	// Distance is the total minimum Euclidean distance at this size.
	Distance float64
}

// GrowthCurveContext grows a subset one benchmark at a time in the set's
// member order, then keeps adding the remaining benchmarks (in input
// order), recording the representativeness at each step — the paper's
// Figure 7 procedure. The addition order is fixed up front, so each curve
// point i depends only on the prefix of the first i+1 names and all points
// are computed as independent jobs — the curve is identical for any worker
// count. workers <= 0 selects all CPUs.
func GrowthCurveContext(ctx context.Context, bs []Benchmark, s Set, workers int) ([]CurvePoint, error) {
	order := append([]string(nil), s.Members...)
	//mblint:ignore ctxloop in-memory order construction; the par.ForEach fan-out below is the cancellation point
	for _, b := range bs {
		if s.Contains(b.Name) {
			continue
		}
		order = append(order, b.Name)
	}
	if len(order) == 0 {
		return nil, ctx.Err()
	}
	out := make([]CurvePoint, len(order))
	err := par.ForEach(ctx, workers, len(order), func(_ context.Context, i int) error {
		d, err := TotalMinDistance(bs, order[:i+1])
		if err != nil {
			return err
		}
		out[i] = CurvePoint{N: i + 1, Added: order[i], Distance: d}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Strategies ---------------------------------------------------------------

// Naive selects the shortest-runtime benchmark from every cluster (the
// paper's Naive subset). Selection order follows ascending runtime so the
// growth curve starts with the cheapest representative.
func Naive(bs []Benchmark, assign cluster.Assignment) (Set, error) {
	if len(assign) != len(bs) {
		return Set{}, fmt.Errorf("subset: assignment covers %d benchmarks, want %d", len(assign), len(bs))
	}
	var members []string
	for c := 0; c < assign.K(); c++ {
		best := -1
		for _, i := range assign.Members(c) {
			if best < 0 || bs[i].RuntimeSec < bs[best].RuntimeSec {
				best = i
			}
		}
		if best >= 0 {
			members = append(members, bs[best].Name)
		}
	}
	sort.Slice(members, func(i, j int) bool {
		ri, _ := RuntimeSec(bs, []string{members[i]})
		rj, _ := RuntimeSec(bs, []string{members[j]})
		return ri < rj
	})
	return Set{Name: "Naive", Members: members}, nil
}

// Greedy builds a subset of size n by repeatedly adding the benchmark that
// most reduces the total minimum Euclidean distance — an alternative
// strategy beyond the paper's three, useful for budget-driven selection.
func Greedy(bs []Benchmark, n int) (Set, error) {
	if n < 1 || n > len(bs) {
		return Set{}, fmt.Errorf("subset: greedy size %d out of range", n)
	}
	var members []string
	chosen := make(map[string]bool)
	for len(members) < n {
		bestName, bestD := "", -1.0
		for _, b := range bs {
			if chosen[b.Name] {
				continue
			}
			trial := append(append([]string(nil), members...), b.Name)
			d, err := TotalMinDistance(bs, trial)
			if err != nil {
				return Set{}, err
			}
			if bestD < 0 || d < bestD {
				bestName, bestD = b.Name, d
			}
		}
		members = append(members, bestName)
		chosen[bestName] = true
	}
	return Set{Name: fmt.Sprintf("Greedy-%d", n), Members: members}, nil
}

// UnderBudget greedily builds the most representative subset whose total
// runtime fits the budget (seconds).
func UnderBudget(bs []Benchmark, budgetSec float64) (Set, error) {
	var members []string
	chosen := make(map[string]bool)
	spent := 0.0
	for {
		bestName, bestD := "", -1.0
		var bestRT float64
		for _, b := range bs {
			if chosen[b.Name] || spent+b.RuntimeSec > budgetSec {
				continue
			}
			trial := append(append([]string(nil), members...), b.Name)
			d, err := TotalMinDistance(bs, trial)
			if err != nil {
				return Set{}, err
			}
			if bestD < 0 || d < bestD {
				bestName, bestD, bestRT = b.Name, d, b.RuntimeSec
			}
		}
		if bestName == "" {
			break
		}
		members = append(members, bestName)
		chosen[bestName] = true
		spent += bestRT
	}
	if len(members) == 0 {
		return Set{}, fmt.Errorf("subset: budget %.0fs admits no benchmark", budgetSec)
	}
	return Set{Name: fmt.Sprintf("Budget-%.0fs", budgetSec), Members: members}, nil
}
