package branch

import (
	"testing"
	"testing/quick"

	"mobilebench/internal/xrand"
)

func TestCounterSaturation(t *testing.T) {
	c := counter(0)
	for i := 0; i < 10; i++ {
		c = c.update(true)
	}
	if c != 3 {
		t.Fatalf("counter did not saturate high: %d", c)
	}
	for i := 0; i < 10; i++ {
		c = c.update(false)
	}
	if c != 0 {
		t.Fatalf("counter did not saturate low: %d", c)
	}
}

func TestCounterPrediction(t *testing.T) {
	if counter(0).taken() || counter(1).taken() {
		t.Fatal("weak/strong not-taken predicted taken")
	}
	if !counter(2).taken() || !counter(3).taken() {
		t.Fatal("weak/strong taken predicted not-taken")
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal(10)
	pc := uint64(0x4000)
	for i := 0; i < 16; i++ {
		b.Update(pc, true)
	}
	if !b.Predict(pc) {
		t.Fatal("bimodal failed to learn an always-taken branch")
	}
	for i := 0; i < 16; i++ {
		b.Update(pc, false)
	}
	if b.Predict(pc) {
		t.Fatal("bimodal failed to unlearn")
	}
}

func TestBimodalIndependentSites(t *testing.T) {
	b := NewBimodal(10)
	taken, notTaken := uint64(0x4000), uint64(0x4040)
	for i := 0; i < 16; i++ {
		b.Update(taken, true)
		b.Update(notTaken, false)
	}
	if !b.Predict(taken) || b.Predict(notTaken) {
		t.Fatal("sites interfered in bimodal table")
	}
}

func TestGShareLearnsAlternation(t *testing.T) {
	// A strictly alternating branch defeats a bimodal predictor but is
	// perfectly predictable with history.
	g := NewGShare(12, 8)
	pc := uint64(0x4000)
	outcome := false
	// Train.
	for i := 0; i < 4096; i++ {
		g.Update(pc, outcome)
		outcome = !outcome
	}
	// Measure.
	wrong := 0
	for i := 0; i < 512; i++ {
		if g.Predict(pc) != outcome {
			wrong++
		}
		g.Update(pc, outcome)
		outcome = !outcome
	}
	if frac := float64(wrong) / 512; frac > 0.05 {
		t.Fatalf("gshare mispredicted %.1f%% of an alternating branch", frac*100)
	}
}

func TestTournamentBeatsWorstComponent(t *testing.T) {
	// On an alternating branch the tournament must approach gshare's
	// accuracy, not bimodal's coin flip.
	tr := NewTournament(12, 8)
	pc := uint64(0x4000)
	outcome := false
	for i := 0; i < 8192; i++ {
		tr.Update(pc, outcome)
		outcome = !outcome
	}
	wrong := 0
	for i := 0; i < 512; i++ {
		if tr.Predict(pc) != outcome {
			wrong++
		}
		tr.Update(pc, outcome)
		outcome = !outcome
	}
	if frac := float64(wrong) / 512; frac > 0.10 {
		t.Fatalf("tournament mispredicted %.1f%% of an alternating branch", frac*100)
	}
}

func TestReset(t *testing.T) {
	const pc = uint64(0x1000)
	b := NewBimodal(8)
	for i := 0; i < 8; i++ {
		b.Update(pc, true)
	}
	b.Reset()
	if b.Predict(pc) {
		t.Error("bimodal predicted taken after reset")
	}
	g := NewGShare(8, 4)
	for i := 0; i < 8; i++ {
		g.Update(pc, true)
	}
	g.Reset()
	if g.Predict(pc) || g.history != 0 {
		t.Error("gshare kept state after reset")
	}
	tr := NewTournament(8, 4)
	for i := 0; i < 8; i++ {
		tr.Update(pc, true)
	}
	tr.Reset()
	if tr.Predict(pc) {
		t.Error("tournament predicted taken after reset")
	}
}

func TestProfileClamp(t *testing.T) {
	p := Profile{StaticBranches: 0, TakenBias: 2, Entropy: -1, Correlated: 5}.Clamp()
	if p.StaticBranches < 1 {
		t.Error("static branches not floored")
	}
	if p.TakenBias != 1 || p.Entropy != 0 || p.Correlated != 1 {
		t.Errorf("profile not clamped: %+v", p)
	}
}

func TestStreamMeasureBounds(t *testing.T) {
	s := NewStream(Profile{StaticBranches: 64, TakenBias: 0.9, Entropy: 0.1}, xrand.New(3))
	p := NewTournament(12, 8)
	wrong := s.Measure(p, 5000)
	if wrong > 5000 {
		t.Fatalf("more mispredictions (%d) than branches", wrong)
	}
	if wrong == 0 {
		t.Fatal("entropy 0.1 stream cannot be perfectly predicted")
	}
}

func TestPredictableStreamsLowMisses(t *testing.T) {
	// A heavily biased, low-entropy stream must mispredict rarely once the
	// predictor is warm.
	s := NewStream(Profile{StaticBranches: 64, TakenBias: 0.99, Entropy: 0.0, Correlated: 0.2}, xrand.New(7))
	p := NewTournament(14, 12)
	s.Measure(p, 20000) // warm up
	wrong := s.Measure(p, 20000)
	if frac := float64(wrong) / 20000; frac > 0.03 {
		t.Fatalf("warm predictor mispredicted %.2f%% of a predictable stream", frac*100)
	}
}

func TestEntropyRaisesMisses(t *testing.T) {
	run := func(entropy float64) uint64 {
		s := NewStream(Profile{StaticBranches: 64, TakenBias: 0.95, Entropy: entropy}, xrand.New(11))
		p := NewTournament(14, 12)
		s.Measure(p, 10000)
		return s.Measure(p, 10000)
	}
	low, high := run(0.01), run(0.4)
	if high <= low {
		t.Fatalf("entropy 0.4 (%d wrong) not worse than 0.01 (%d wrong)", high, low)
	}
}

// TestStreamDeterminism also covers Reset: a stream re-targeted after
// measuring another profile must match a fresh one.
func TestStreamDeterminism(t *testing.T) {
	prof := Profile{StaticBranches: 32, TakenBias: 0.8, Entropy: 0.1}
	mk := func() uint64 {
		s := NewStream(prof, xrand.New(5))
		return s.Measure(NewTournament(10, 8), 2000)
	}
	want := mk()
	if mk() != want {
		t.Fatal("identical seeds produced different misprediction counts")
	}
	for _, other := range []int{32, 256} {
		s := NewStream(Profile{StaticBranches: other, TakenBias: 0.5, Correlated: 0.4}, xrand.New(8))
		s.Measure(NewTournament(10, 8), 500)
		s.Reset(prof, xrand.New(5))
		if got := s.Measure(NewTournament(10, 8), 2000); got != want {
			t.Fatalf("stream reset from %d sites: %d mispredictions, fresh %d", other, got, want)
		}
	}
}

func TestQuickMeasureInRange(t *testing.T) {
	f := func(seed uint64, biasRaw, entRaw uint8) bool {
		prof := Profile{
			StaticBranches: 32,
			TakenBias:      float64(biasRaw) / 255,
			Entropy:        float64(entRaw) / 255,
		}
		s := NewStream(prof, xrand.New(seed))
		wrong := s.Measure(NewTournament(10, 8), 500)
		return wrong <= 500
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
