// Package branch implements branch-predictor models used to derive the
// branch-MPKI counter.
//
// Like the cache package, predictors are driven with sampled synthetic
// branch streams: each tick the simulator draws a few thousand branch
// outcomes whose statistical structure (bias, history correlation, number of
// static branches) is set by the workload phase, and scales the observed
// misprediction ratio to branch misses per kilo-instruction.
package branch

import "mobilebench/internal/xrand"

// Predictor is the interface shared by all predictor models.
type Predictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the actual outcome.
	Update(pc uint64, taken bool)
	// Reset clears all state.
	Reset()
	// Name identifies the predictor.
	Name() string
}

// counter is a 2-bit saturating counter. Values 0,1 predict not-taken;
// 2,3 predict taken.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) update(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Bimodal is a classic PC-indexed table of 2-bit counters.
type Bimodal struct {
	table []counter
	mask  uint64
}

// NewBimodal creates a bimodal predictor with 2^bits entries.
func NewBimodal(bits uint) *Bimodal {
	n := uint64(1) << bits
	return &Bimodal{table: make([]counter, n), mask: n - 1}
}

// Name implements Predictor.
func (b *Bimodal) Name() string { return "bimodal" }

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint64) bool { return b.table[b.index(pc)].taken() }

// Update implements Predictor.
func (b *Bimodal) Update(pc uint64, taken bool) {
	i := b.index(pc)
	b.table[i] = b.table[i].update(taken)
}

// Reset implements Predictor.
func (b *Bimodal) Reset() {
	for i := range b.table {
		b.table[i] = 0
	}
}

func (b *Bimodal) index(pc uint64) uint64 { return (pc >> 2) & b.mask }

// GShare xors a global history register into the table index, capturing
// correlation between branches.
type GShare struct {
	table   []counter
	mask    uint64
	history uint64
	histLen uint
}

// NewGShare creates a gshare predictor with 2^bits entries and histLen bits
// of global history.
func NewGShare(bits, histLen uint) *GShare {
	n := uint64(1) << bits
	return &GShare{table: make([]counter, n), mask: n - 1, histLen: histLen}
}

// Name implements Predictor.
func (g *GShare) Name() string { return "gshare" }

// Predict implements Predictor.
func (g *GShare) Predict(pc uint64) bool { return g.table[g.index(pc)].taken() }

// Update implements Predictor.
func (g *GShare) Update(pc uint64, taken bool) {
	i := g.index(pc)
	g.table[i] = g.table[i].update(taken)
	g.history = ((g.history << 1) | boolBit(taken)) & ((1 << g.histLen) - 1)
}

// Reset implements Predictor.
func (g *GShare) Reset() {
	for i := range g.table {
		g.table[i] = 0
	}
	g.history = 0
}

func (g *GShare) index(pc uint64) uint64 { return ((pc >> 2) ^ g.history) & g.mask }

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Tournament combines a bimodal and a gshare component with a chooser table,
// approximating the hybrid predictors of modern ARM cores.
type Tournament struct {
	bimodal *Bimodal
	gshare  *GShare
	chooser []counter // >=2 selects gshare
	mask    uint64
}

// NewTournament creates a tournament predictor; bits sizes all three tables.
func NewTournament(bits, histLen uint) *Tournament {
	n := uint64(1) << bits
	return &Tournament{
		bimodal: NewBimodal(bits),
		gshare:  NewGShare(bits, histLen),
		chooser: make([]counter, n),
		mask:    n - 1,
	}
}

// Name implements Predictor.
func (t *Tournament) Name() string { return "tournament" }

// Predict implements Predictor.
func (t *Tournament) Predict(pc uint64) bool {
	if t.chooser[(pc>>2)&t.mask].taken() {
		return t.gshare.Predict(pc)
	}
	return t.bimodal.Predict(pc)
}

// Update implements Predictor.
func (t *Tournament) Update(pc uint64, taken bool) {
	bp := t.bimodal.Predict(pc)
	gp := t.gshare.Predict(pc)
	i := (pc >> 2) & t.mask
	// Train the chooser toward the component that was right when they
	// disagree.
	if bp != gp {
		t.chooser[i] = t.chooser[i].update(gp == taken)
	}
	t.bimodal.Update(pc, taken)
	t.gshare.Update(pc, taken)
}

// Reset implements Predictor.
func (t *Tournament) Reset() {
	t.bimodal.Reset()
	t.gshare.Reset()
	for i := range t.chooser {
		t.chooser[i] = 0
	}
}

// Profile describes the statistical structure of a phase's branch stream.
type Profile struct {
	// StaticBranches is the number of distinct branch sites cycled through.
	StaticBranches int
	// TakenBias is the probability a loop-like branch is taken.
	TakenBias float64
	// Entropy in [0,1] is the fraction of branches that are data-dependent
	// coin flips (unpredictable regardless of history).
	Entropy float64
	// Correlated in [0,1] is the fraction of branches whose outcome repeats
	// the previous outcome of the same site (history-predictable).
	Correlated float64
}

// Clamp forces the profile into valid ranges.
func (p Profile) Clamp() Profile {
	if p.StaticBranches < 1 {
		p.StaticBranches = 1
	}
	c := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	p.TakenBias = c(p.TakenBias)
	p.Entropy = c(p.Entropy)
	p.Correlated = c(p.Correlated)
	return p
}

// Stream generates synthetic branch outcomes for a Profile and measures a
// predictor against them.
type Stream struct {
	prof Profile
	rng  *xrand.Rand
	last []bool // per-site previous outcome
	pcs  []uint64
	// siteZipf is the hot-site sampler: bit-identical to
	// rng.Zipf(len(pcs), 1.1) per branch, without its math.Pow.
	siteZipf xrand.ZipfGen
	// The profile's fractions as precomputed Bool draws.
	entropy, correlated, bias xrand.Threshold
}

// NewStream creates a branch stream for the profile.
func NewStream(prof Profile, rng *xrand.Rand) *Stream {
	s := new(Stream)
	s.Reset(prof, rng)
	return s
}

// Reset re-targets s: afterwards it measures exactly as NewStream(prof,
// rng) would, reusing its buffers and hot-site sampler.
func (s *Stream) Reset(prof Profile, rng *xrand.Rand) {
	prof = prof.Clamp()
	s.prof, s.rng = prof, rng
	if n := prof.StaticBranches; len(s.pcs) != n {
		s.last = make([]bool, n)
		s.pcs = make([]uint64, n)
		for i := range s.pcs {
			s.pcs[i] = 0x400000 + uint64(i)*16
		}
	} else {
		clear(s.last)
	}
	s.siteZipf.Reset(len(s.pcs), 1.1)
	s.entropy = xrand.NewThreshold(prof.Entropy)
	s.correlated = xrand.NewThreshold(prof.Correlated)
	s.bias = xrand.NewThreshold(prof.TakenBias)
}

// coinFlip is Bool(0.5).
var coinFlip = xrand.NewThreshold(0.5)

// Measure runs n branches through p and returns the number mispredicted.
func (s *Stream) Measure(p Predictor, n int) uint64 {
	var miss uint64
	for i := 0; i < n; i++ {
		site := s.siteZipf.Draw(s.rng) // hot loops dominate
		pc := s.pcs[site]
		var taken bool
		switch {
		case s.entropy.Draw(s.rng):
			taken = coinFlip.Draw(s.rng)
		case s.correlated.Draw(s.rng):
			taken = s.last[site]
		default:
			taken = s.bias.Draw(s.rng)
		}
		if p.Predict(pc) != taken {
			miss++
		}
		p.Update(pc, taken)
		s.last[site] = taken
	}
	return miss
}
