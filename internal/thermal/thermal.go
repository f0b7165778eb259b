// Package thermal models die temperature with a lumped RC network and
// per-node throttle trip state.
//
// The paper's second stated limitation is thermals ("the absence of a
// battery and casing in the development board limits the representativeness
// of thermal readings"); this package is the repository's beyond-the-paper
// extension. Each monitored component (CPU clusters, GPU, the rest of the
// SoC) is a thermal node with a heat capacity, coupled to a skin node that
// leaks to ambient — the classic two-stage RC compact model used in mobile
// thermal studies. Each node also tracks whether it is past its trip point
// (with hysteresis); the simulator records that as an observation and
// never feeds it back into DVFS, since the paper's board did not throttle.
package thermal

import "fmt"

// Node identifies a monitored thermal node.
type Node int

// Monitored nodes.
const (
	NodeCPU Node = iota
	NodeGPU
	NodeSoC
	NumNodes
)

// String returns the node name.
func (n Node) String() string {
	switch n {
	case NodeCPU:
		return "cpu"
	case NodeGPU:
		return "gpu"
	case NodeSoC:
		return "soc"
	default:
		return fmt.Sprintf("node(%d)", int(n))
	}
}

// Config parameterizes the RC network.
type Config struct {
	// AmbientC is the ambient temperature in Celsius.
	AmbientC float64
	// CapacityJPerC is each node's heat capacity (joules per degree).
	CapacityJPerC [NumNodes]float64
	// NodeToSkinW is each node's conductance to the skin (watts per
	// degree).
	NodeToSkinW [NumNodes]float64
	// SkinCapacityJPerC is the skin/board heat capacity.
	SkinCapacityJPerC float64
	// SkinToAmbientW is the skin-to-ambient conductance.
	SkinToAmbientW float64
	// TripC is each node's throttle trip point; 0 disables throttling for
	// the node.
	TripC [NumNodes]float64
	// HysteresisC is how far below the trip point a node must cool before
	// its throttle releases.
	HysteresisC float64
}

// DefaultConfig returns constants representative of a development board
// without a casing (the paper's platform): generous heat spreading and
// high trip points.
func DefaultConfig() Config {
	var c Config
	c.AmbientC = 25
	c.CapacityJPerC = [NumNodes]float64{4, 5, 15}
	c.NodeToSkinW = [NumNodes]float64{0.18, 0.20, 0.6}
	c.SkinCapacityJPerC = 80
	c.SkinToAmbientW = 0.45
	c.TripC = [NumNodes]float64{95, 95, 0}
	c.HysteresisC = 5
	return c
}

// State is the thermal reading for one tick.
type State struct {
	// NodeC is each node's temperature in Celsius.
	NodeC [NumNodes]float64
	// SkinC is the skin temperature.
	SkinC float64
	// Throttled reports nodes currently above their trip point (with
	// hysteresis).
	Throttled [NumNodes]bool
}

// Model integrates the RC network.
type Model struct {
	cfg       Config
	nodeC     [NumNodes]float64
	skinC     float64
	throttled [NumNodes]bool
}

// NewModel creates a model at thermal equilibrium with ambient.
func NewModel(cfg Config) *Model {
	m := &Model{cfg: cfg, skinC: cfg.AmbientC}
	for i := range m.nodeC {
		m.nodeC[i] = cfg.AmbientC
	}
	return m
}

// Step integrates dt seconds with the given per-node power input (watts)
// and returns the new state.
func (m *Model) Step(powerW [NumNodes]float64, dt float64) State {
	// Node dynamics: C dT/dt = P - G*(T - Tskin).
	heatToSkin := 0.0
	for i := range m.nodeC {
		g := m.cfg.NodeToSkinW[i]
		flow := g * (m.nodeC[i] - m.skinC)
		heatToSkin += flow
		cap := m.cfg.CapacityJPerC[i]
		if cap > 0 {
			m.nodeC[i] += (powerW[i] - flow) * dt / cap
		}
	}
	// Skin dynamics: C dT/dt = sum(inflow) - G*(T - Tamb).
	if m.cfg.SkinCapacityJPerC > 0 {
		out := m.cfg.SkinToAmbientW * (m.skinC - m.cfg.AmbientC)
		m.skinC += (heatToSkin - out) * dt / m.cfg.SkinCapacityJPerC
	}
	// Throttle with hysteresis.
	for i := range m.nodeC {
		trip := m.cfg.TripC[i]
		if trip <= 0 {
			continue
		}
		if m.nodeC[i] >= trip {
			m.throttled[i] = true
		} else if m.nodeC[i] < trip-m.cfg.HysteresisC {
			m.throttled[i] = false
		}
	}
	return m.State()
}

// State returns the current reading without advancing time.
func (m *Model) State() State {
	return State{NodeC: m.nodeC, SkinC: m.skinC, Throttled: m.throttled}
}

// Reset returns the network to ambient equilibrium.
func (m *Model) Reset() {
	for i := range m.nodeC {
		m.nodeC[i] = m.cfg.AmbientC
		m.throttled[i] = false
	}
	m.skinC = m.cfg.AmbientC
}
