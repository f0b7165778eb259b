package power

import (
	"math"
	"testing"
	"testing/quick"

	"mobilebench/internal/soc"
)

func fullLoadInput(dt float64) Input {
	p := soc.Snapdragon888HDK()
	var in Input
	for _, k := range soc.Clusters() {
		in.Clusters[k] = ClusterInput{
			FreqHz:    p.Clusters[k].MaxFreqHz,
			Util:      1,
			MaxFreqHz: p.Clusters[k].MaxFreqHz,
			Cores:     p.Clusters[k].NumCores,
		}
	}
	in.GPULoad = 1
	in.AIELoad = 1
	in.DRAMBytes = 5e9 * dt
	in.StorageUtil = 1
	in.DTSec = dt
	return in
}

func idleInput(dt float64) Input {
	p := soc.Snapdragon888HDK()
	var in Input
	for _, k := range soc.Clusters() {
		in.Clusters[k] = ClusterInput{
			FreqHz:    p.Clusters[k].MinFreqHz,
			Util:      0,
			MaxFreqHz: p.Clusters[k].MaxFreqHz,
			Cores:     p.Clusters[k].NumCores,
		}
	}
	in.DTSec = dt
	return in
}

func TestDefaultCoefficientsValid(t *testing.T) {
	if err := DefaultCoefficients().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	c := DefaultCoefficients()
	c.Cluster[0].StaticW = -1
	if err := c.Validate(); err == nil {
		t.Error("negative leakage accepted")
	}
	c = DefaultCoefficients()
	c.StorageActiveW = c.StorageIdleW - 1
	if err := c.Validate(); err == nil {
		t.Error("inverted storage powers accepted")
	}
	c = DefaultCoefficients()
	c.GPUDynamicW = -1
	if err := c.Validate(); err == nil {
		t.Error("negative GPU power accepted")
	}
}

func TestFullLoadEnvelope(t *testing.T) {
	// A Snapdragon-class SoC under everything-at-once load draws on the
	// order of 8-14 W (a level it cannot sustain thermally).
	m := NewModel(DefaultCoefficients())
	b := m.Step(fullLoadInput(0.1))
	if total := b.TotalW(); total < 7 || total > 16 {
		t.Fatalf("full-load power %.1f W outside the plausible envelope", total)
	}
	// CPU alone: ~4-6 W.
	if cpu := b.CPUW(); cpu < 3 || cpu > 7 {
		t.Fatalf("full-load CPU power %.1f W implausible", cpu)
	}
}

func TestIdleEnvelope(t *testing.T) {
	m := NewModel(DefaultCoefficients())
	b := m.Step(idleInput(0.1))
	if total := b.TotalW(); total < 0.3 || total > 1.5 {
		t.Fatalf("idle power %.2f W outside the plausible envelope", total)
	}
}

func TestLoadMonotonicity(t *testing.T) {
	m := NewModel(DefaultCoefficients())
	idle := m.Step(idleInput(0.1)).TotalW()
	full := m.Step(fullLoadInput(0.1)).TotalW()
	if full <= idle {
		t.Fatal("full load should out-draw idle")
	}
}

func TestVoltageScalingSuperlinear(t *testing.T) {
	// Power at full frequency must exceed linear scaling from half
	// frequency (the V^2 term).
	p := soc.Snapdragon888HDK()
	mk := func(freqFrac float64) float64 {
		var in Input
		in.Clusters[soc.Big] = ClusterInput{
			FreqHz:    p.Clusters[soc.Big].MaxFreqHz * freqFrac,
			Util:      1,
			MaxFreqHz: p.Clusters[soc.Big].MaxFreqHz,
			Cores:     1,
		}
		in.DTSec = 0.1
		m := NewModel(DefaultCoefficients())
		b := m.Step(in)
		return b.Cluster[soc.Big] - DefaultCoefficients().Cluster[soc.Big].StaticW
	}
	half, full := mk(0.5), mk(1.0)
	if full <= 2*half {
		t.Fatalf("dynamic power not superlinear in frequency: full %.2f vs half %.2f", full, half)
	}
}

func TestBigCoreOutdrawsLittle(t *testing.T) {
	m := NewModel(DefaultCoefficients())
	b := m.Step(fullLoadInput(0.1))
	perBig := b.Cluster[soc.Big] / 1
	perLittle := b.Cluster[soc.Little] / 4
	if perBig <= perLittle {
		t.Fatalf("big core (%.2f W) should out-draw a little core (%.2f W)", perBig, perLittle)
	}
}

func TestEnergyAccumulation(t *testing.T) {
	m := NewModel(DefaultCoefficients())
	for i := 0; i < 10; i++ {
		m.Step(fullLoadInput(0.1))
	}
	if m.EnergyJ() <= 0 {
		t.Fatal("no energy accumulated")
	}
	want := m.AveragePowerW() * 1.0 // 10 ticks x 0.1 s
	if math.Abs(m.EnergyJ()-want) > 1e-9 {
		t.Fatalf("energy %.3f J inconsistent with average power %.3f W", m.EnergyJ(), m.AveragePowerW())
	}
	m.Reset()
	if m.EnergyJ() != 0 || m.AveragePowerW() != 0 {
		t.Fatal("reset did not clear accumulators")
	}
}

func TestDRAMEnergyScalesWithTraffic(t *testing.T) {
	m := NewModel(DefaultCoefficients())
	quiet := idleInput(0.1)
	busy := idleInput(0.1)
	busy.DRAMBytes = 2e9 * 0.1
	if m.Step(busy).DRAM <= m.Step(quiet).DRAM {
		t.Fatal("DRAM power should scale with traffic")
	}
}

func TestQuickNonNegative(t *testing.T) {
	p := soc.Snapdragon888HDK()
	m := NewModel(DefaultCoefficients())
	f := func(freqRaw, utilRaw, gpuRaw uint8) bool {
		var in Input
		for _, k := range soc.Clusters() {
			in.Clusters[k] = ClusterInput{
				FreqHz:    p.Clusters[k].MaxFreqHz * float64(freqRaw) / 255,
				Util:      float64(utilRaw) / 255,
				MaxFreqHz: p.Clusters[k].MaxFreqHz,
				Cores:     p.Clusters[k].NumCores,
			}
		}
		in.GPULoad = float64(gpuRaw) / 255
		in.DTSec = 0.1
		b := m.Step(in)
		return b.TotalW() >= 0 && b.CPUW() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
