// Package power models per-component power draw and accumulated energy for
// the simulated SoC.
//
// The paper lists power as an explicit limitation of its methodology
// ("conducting power readings necessitates external hardware, which is not
// within the scope of our current capabilities"); this package is the
// repository's beyond-the-paper extension filling that gap. The models are
// the standard first-order forms used in architecture studies:
//
//   - CPU dynamic power per cluster: P = C * V^2 * f * util, with the
//     voltage inferred from the operating point (V roughly linear in f
//     across a mobile DVFS range), plus per-cluster static leakage while
//     the cluster is powered.
//   - GPU and AIE: capacitance-scaled dynamic power from load, plus
//     leakage.
//   - DRAM: background power plus per-byte access energy.
//   - Storage: idle plus active power scaled by utilization.
//
// Coefficients are calibrated to public Snapdragon-class figures: roughly
// 4-5 W sustained SoC power under full CPU load, ~5 W GPU-dominated load in
// heavy games, and hundreds of milliwatts at idle.
package power

import (
	"fmt"

	"mobilebench/internal/soc"
)

// ClusterCoeff holds one CPU cluster's power coefficients.
type ClusterCoeff struct {
	// DynamicNsPerCore is the effective switched capacitance in
	// nanojoules per cycle per core at nominal voltage (P = k * f *
	// util * cores after voltage scaling).
	DynamicNsPerCore float64
	// StaticW is the leakage power of the whole cluster when powered.
	StaticW float64
}

// Coefficients parameterize the whole-SoC power model.
type Coefficients struct {
	Cluster [soc.NumClusters]ClusterCoeff
	// GPUDynamicW is GPU power at full load and maximum frequency.
	GPUDynamicW float64
	// GPUStaticW is GPU leakage while powered.
	GPUStaticW float64
	// AIEDynamicW is AIE power at full load.
	AIEDynamicW float64
	// AIEStaticW is AIE leakage.
	AIEStaticW float64
	// DRAMBackgroundW is DRAM standby/refresh power.
	DRAMBackgroundW float64
	// DRAMEnergyPerGB is access energy in joules per gigabyte moved.
	DRAMEnergyPerGB float64
	// StorageIdleW and StorageActiveW bound the flash subsystem.
	StorageIdleW, StorageActiveW float64
	// SoCBaseW is the always-on rest of the SoC (interconnect, sensors,
	// display pipeline excluding the panel).
	SoCBaseW float64
}

// DefaultCoefficients returns values calibrated to Snapdragon-class
// publicly reported power envelopes.
func DefaultCoefficients() Coefficients {
	var c Coefficients
	// Big core: ~2 W at 3 GHz full tilt; Mid: ~0.9 W/core at 2.42 GHz;
	// Little: ~0.25 W/core at 1.8 GHz.
	c.Cluster[soc.Big] = ClusterCoeff{DynamicNsPerCore: 0.667, StaticW: 0.08}
	c.Cluster[soc.Mid] = ClusterCoeff{DynamicNsPerCore: 0.372, StaticW: 0.10}
	c.Cluster[soc.Little] = ClusterCoeff{DynamicNsPerCore: 0.139, StaticW: 0.06}
	c.GPUDynamicW = 4.5
	c.GPUStaticW = 0.12
	c.AIEDynamicW = 1.8
	c.AIEStaticW = 0.05
	c.DRAMBackgroundW = 0.18
	c.DRAMEnergyPerGB = 0.06
	c.StorageIdleW = 0.02
	c.StorageActiveW = 1.1
	c.SoCBaseW = 0.25
	return c
}

// ClusterInput is one cluster's state for a tick.
type ClusterInput struct {
	// FreqHz is the cluster frequency.
	FreqHz float64
	// Util is per-core utilization (0..1).
	Util float64
	// MaxFreqHz is the cluster's top operating point (for voltage scaling).
	MaxFreqHz float64
	// Cores is the cluster's core count.
	Cores int
}

// Input is the SoC state for one tick.
type Input struct {
	Clusters [soc.NumClusters]ClusterInput
	// GPULoad is frequency x utilization (0..1).
	GPULoad float64
	// AIELoad is frequency x utilization (0..1).
	AIELoad float64
	// DRAMBytes is data moved to/from DRAM this tick.
	DRAMBytes float64
	// StorageUtil is storage utilization (0..1).
	StorageUtil float64
	// DTSec is the tick length.
	DTSec float64
}

// Breakdown is per-component power for one tick, in watts.
type Breakdown struct {
	Cluster [soc.NumClusters]float64
	GPU     float64
	AIE     float64
	DRAM    float64
	Storage float64
	Base    float64
}

// TotalW returns the summed SoC power.
func (b Breakdown) TotalW() float64 {
	t := b.GPU + b.AIE + b.DRAM + b.Storage + b.Base
	for _, c := range b.Cluster {
		t += c
	}
	return t
}

// CPUW returns the summed CPU-cluster power.
func (b Breakdown) CPUW() float64 {
	t := 0.0
	for _, c := range b.Cluster {
		t += c
	}
	return t
}

// Model accumulates energy over a run.
type Model struct {
	coeff Coefficients
	// energyJ accumulates total energy.
	energyJ float64
	// elapsed accumulates simulated time.
	elapsed float64
}

// NewModel creates a power model.
func NewModel(coeff Coefficients) *Model { return &Model{coeff: coeff} }

// voltageScale approximates V^2/Vnom^2 from the frequency ratio: mobile
// DVFS curves run roughly V = 0.6 + 0.4*(f/fmax) of nominal.
func voltageScale(freqHz, maxHz float64) float64 {
	if maxHz <= 0 {
		return 1
	}
	r := freqHz / maxHz
	if r < 0 {
		r = 0
	}
	if r > 1 {
		r = 1
	}
	v := 0.6 + 0.4*r
	return v * v
}

// Step computes the tick's power breakdown and accumulates energy.
func (m *Model) Step(in Input) Breakdown {
	var b Breakdown
	for k := range in.Clusters {
		ci := in.Clusters[k]
		if ci.Cores == 0 {
			continue
		}
		coeff := m.coeff.Cluster[k]
		dyn := coeff.DynamicNsPerCore * 1e-9 * ci.FreqHz * ci.Util *
			float64(ci.Cores) * voltageScale(ci.FreqHz, ci.MaxFreqHz)
		b.Cluster[k] = dyn + coeff.StaticW
	}
	b.GPU = m.coeff.GPUStaticW + m.coeff.GPUDynamicW*clamp01(in.GPULoad)
	b.AIE = m.coeff.AIEStaticW + m.coeff.AIEDynamicW*clamp01(in.AIELoad)
	dramActive := 0.0
	if in.DTSec > 0 {
		dramActive = m.coeff.DRAMEnergyPerGB * (in.DRAMBytes / 1e9) / in.DTSec
	}
	b.DRAM = m.coeff.DRAMBackgroundW + dramActive
	b.Storage = m.coeff.StorageIdleW +
		(m.coeff.StorageActiveW-m.coeff.StorageIdleW)*clamp01(in.StorageUtil)
	b.Base = m.coeff.SoCBaseW

	dt := in.DTSec
	m.energyJ += b.TotalW() * dt
	m.elapsed += dt
	return b
}

// EnergyJ returns total accumulated energy in joules.
func (m *Model) EnergyJ() float64 { return m.energyJ }

// AveragePowerW returns mean power over the accumulated time.
func (m *Model) AveragePowerW() float64 {
	if m.elapsed == 0 {
		return 0
	}
	return m.energyJ / m.elapsed
}

// Reset clears accumulated energy.
func (m *Model) Reset() {
	m.energyJ = 0
	m.elapsed = 0
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Validate sanity-checks the coefficients.
func (c Coefficients) Validate() error {
	for k, cc := range c.Cluster {
		if cc.DynamicNsPerCore < 0 || cc.StaticW < 0 {
			return fmt.Errorf("power: cluster %d has negative coefficients", k)
		}
	}
	if c.GPUDynamicW < 0 || c.AIEDynamicW < 0 || c.DRAMEnergyPerGB < 0 {
		return fmt.Errorf("power: negative component coefficients")
	}
	if c.StorageActiveW < c.StorageIdleW {
		return fmt.Errorf("power: storage active power below idle")
	}
	return nil
}
