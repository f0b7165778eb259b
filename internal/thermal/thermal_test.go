package thermal

import (
	"math"
	"testing"
)

func TestStartsAtAmbient(t *testing.T) {
	m := NewModel(DefaultConfig())
	s := m.State()
	for i := range s.NodeC {
		if s.NodeC[i] != 25 {
			t.Fatalf("node %d starts at %g, want ambient", i, s.NodeC[i])
		}
	}
	if s.SkinC != 25 {
		t.Fatal("skin not at ambient")
	}
}

func TestHeatingAndCooling(t *testing.T) {
	m := NewModel(DefaultConfig())
	var heat [NumNodes]float64
	heat[NodeCPU] = 5 // sustained 5 W
	var hot State
	for i := 0; i < 3000; i++ { // 5 minutes
		hot = m.Step(heat, 0.1)
	}
	if hot.NodeC[NodeCPU] <= 40 {
		t.Fatalf("5 W for 5 minutes only reached %.1f C", hot.NodeC[NodeCPU])
	}
	if hot.SkinC <= 25 {
		t.Fatal("skin did not warm")
	}
	// Cool down.
	var cold State
	for i := 0; i < 12000; i++ { // 20 minutes idle
		cold = m.Step([NumNodes]float64{}, 0.1)
	}
	if cold.NodeC[NodeCPU] >= hot.NodeC[NodeCPU] {
		t.Fatal("no cooling when idle")
	}
	if cold.NodeC[NodeCPU] > 30 {
		t.Fatalf("did not approach ambient: %.1f C", cold.NodeC[NodeCPU])
	}
}

func TestSteadyStateMatchesConductance(t *testing.T) {
	// At steady state, node temperature = ambient + P/Gskin + P/Gnode for a
	// single heated node.
	cfg := DefaultConfig()
	cfg.TripC = [NumNodes]float64{} // no throttling
	m := NewModel(cfg)
	var heat [NumNodes]float64
	heat[NodeGPU] = 2
	var s State
	for i := 0; i < 60000; i++ { // 100 minutes
		s = m.Step(heat, 0.1)
	}
	want := cfg.AmbientC + 2/cfg.SkinToAmbientW + 2/cfg.NodeToSkinW[NodeGPU]
	if math.Abs(s.NodeC[NodeGPU]-want) > 1 {
		t.Fatalf("steady state %.2f C, want %.2f C", s.NodeC[NodeGPU], want)
	}
}

func TestThrottleWithHysteresis(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TripC[NodeCPU] = 50
	cfg.HysteresisC = 5
	m := NewModel(cfg)
	var heat [NumNodes]float64
	heat[NodeCPU] = 20
	for i := 0; i < 20000; i++ {
		s := m.Step(heat, 0.1)
		if s.Throttled[NodeCPU] {
			break
		}
	}
	if !m.State().Throttled[NodeCPU] {
		t.Fatal("20 W never tripped the 50 C throttle")
	}
	// Cool slightly below trip: hysteresis keeps the throttle on.
	for m.State().NodeC[NodeCPU] > 48 {
		m.Step([NumNodes]float64{}, 0.1)
	}
	if !m.State().Throttled[NodeCPU] {
		t.Fatal("throttle released inside the hysteresis band")
	}
	// Cool past the band: throttle releases.
	for m.State().NodeC[NodeCPU] > 44 {
		m.Step([NumNodes]float64{}, 0.1)
	}
	if m.State().Throttled[NodeCPU] {
		t.Fatal("throttle never released")
	}
}

func TestTripDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TripC = [NumNodes]float64{}
	m := NewModel(cfg)
	var heat [NumNodes]float64
	heat[NodeCPU] = 100
	for i := 0; i < 5000; i++ {
		m.Step(heat, 0.1)
	}
	if m.State().Throttled[NodeCPU] {
		t.Fatal("disabled trip point throttled")
	}
}

func TestReset(t *testing.T) {
	m := NewModel(DefaultConfig())
	var heat [NumNodes]float64
	heat[NodeCPU] = 10
	for i := 0; i < 1000; i++ {
		m.Step(heat, 0.1)
	}
	m.Reset()
	if m.State().NodeC[NodeCPU] != 25 || m.State().SkinC != 25 {
		t.Fatal("reset did not restore ambient")
	}
}

func TestNodeNames(t *testing.T) {
	if NodeCPU.String() != "cpu" || NodeGPU.String() != "gpu" || NodeSoC.String() != "soc" {
		t.Fatal("node names wrong")
	}
	if Node(9).String() != "node(9)" {
		t.Fatal("unknown node should stringify defensively")
	}
}
