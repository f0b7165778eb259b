// Package soc describes the hardware platform the simulator models.
//
// The reference platform is the Qualcomm Snapdragon 888 Mobile Hardware
// Development Kit used by the paper (Table II): a tri-cluster octa-core
// Kryo 680 CPU (1 Prime + 3 Gold + 4 Silver), a shared 4 MB L3 plus a 3 MB
// system-level cache, an Adreno 660 GPU, a Hexagon 780 AI engine, 12 GB of
// LPDDR5 and UFS flash storage. All geometry lives here as data so that
// alternative platforms can be described without touching the models.
package soc

import "fmt"

// ClusterKind identifies one of the three CPU core clusters of a
// big.LITTLE-style mobile SoC. The paper calls them CPU Little, CPU Mid and
// CPU Big.
type ClusterKind int

const (
	// Little is the energy-efficient cluster (Kryo 680 Silver / Cortex-A55).
	Little ClusterKind = iota
	// Mid is the balanced cluster (Kryo 680 Gold / Cortex-A78).
	Mid
	// Big is the single high-performance prime core (Kryo 680 Prime /
	// Cortex-X1).
	Big
	// NumClusters is the number of CPU clusters on the platform.
	NumClusters
)

// String returns the paper's name for the cluster.
func (k ClusterKind) String() string {
	switch k {
	case Little:
		return "CPU Little"
	case Mid:
		return "CPU Mid"
	case Big:
		return "CPU Big"
	default:
		return fmt.Sprintf("ClusterKind(%d)", int(k))
	}
}

// Clusters lists the cluster kinds in ascending capability order.
func Clusters() []ClusterKind { return []ClusterKind{Little, Mid, Big} }

// CacheGeometry describes one set-associative cache.
type CacheGeometry struct {
	Name      string
	SizeBytes int
	LineBytes int
	Ways      int
	// LatencyCycles is the hit latency seen by the core.
	LatencyCycles int
}

// Sets returns the number of sets implied by the geometry.
func (g CacheGeometry) Sets() int {
	if g.SizeBytes <= 0 || g.LineBytes <= 0 || g.Ways <= 0 {
		return 0
	}
	return g.SizeBytes / (g.LineBytes * g.Ways)
}

// Validate reports whether the geometry is internally consistent.
func (g CacheGeometry) Validate() error {
	if g.SizeBytes <= 0 {
		return fmt.Errorf("soc: cache %s: non-positive size", g.Name)
	}
	if g.LineBytes <= 0 || g.LineBytes&(g.LineBytes-1) != 0 {
		return fmt.Errorf("soc: cache %s: line size %d not a positive power of two", g.Name, g.LineBytes)
	}
	if g.Ways <= 0 {
		return fmt.Errorf("soc: cache %s: non-positive associativity", g.Name)
	}
	if g.Sets() == 0 || g.Sets()*g.LineBytes*g.Ways != g.SizeBytes {
		return fmt.Errorf("soc: cache %s: size %d not divisible into %d-way sets of %d-byte lines",
			g.Name, g.SizeBytes, g.Ways, g.LineBytes)
	}
	return nil
}

// CPUCluster describes one homogeneous core cluster.
type CPUCluster struct {
	Kind      ClusterKind
	Name      string // microarchitecture name, e.g. "Kryo 680 Prime (Cortex-X1)"
	NumCores  int
	MaxFreqHz float64
	MinFreqHz float64
	// FreqStepsHz is the DVFS operating-point table in ascending order.
	FreqStepsHz []float64
	// IssueWidth caps the theoretical IPC of the core.
	IssueWidth int
	// BaseIPCScale scales a workload's intrinsic ILP to this
	// microarchitecture: 1.0 for Big, lower for narrower cores.
	BaseIPCScale float64
	// CapacityScale is the scheduler's relative capacity measure
	// (Big = 1.0), combining width and frequency.
	CapacityScale float64
	L1I, L1D      CacheGeometry
	L2            CacheGeometry // per-core private L2
}

// GPU describes the graphics processor.
type GPU struct {
	Name       string
	NumShaders int
	MaxFreqHz  float64
	MinFreqHz  float64
	// L1TexKB is the per-shader-cluster texture cache size.
	L1TexKB int
	// BusWidthBytes and BusFreqHz bound bandwidth to system memory.
	BusWidthBytes int
	BusFreqHz     float64
}

// MaxBusBandwidth returns the peak GPU-to-memory bandwidth in bytes/second.
func (g GPU) MaxBusBandwidth() float64 {
	return float64(g.BusWidthBytes) * g.BusFreqHz
}

// AIE describes the AI engine / DSP complex.
type AIE struct {
	Name      string
	MaxFreqHz float64
	// VectorLanes sets peak throughput for vector DSP work.
	VectorLanes int
	// SupportedCodecs lists hardware-accelerated video codecs. Workloads
	// using codecs outside this list fall back to the CPU (the paper's
	// AV1 observation).
	SupportedCodecs []string
}

// SupportsCodec reports whether the AIE accelerates the named codec.
func (a AIE) SupportsCodec(codec string) bool {
	for _, c := range a.SupportedCodecs {
		if c == codec {
			return true
		}
	}
	return false
}

// Memory describes the DRAM subsystem.
type Memory struct {
	Kind    string
	TotalMB float64
	// IdleOSMB is the average memory the OS and resident services use when
	// the system is idle; the profiler subtracts it per the paper's
	// methodology (Limitation 3).
	IdleOSMB    float64
	BandwidthBs float64
	LatencyNs   float64
}

// AvailableMB returns memory available to workloads after the OS baseline.
func (m Memory) AvailableMB() float64 { return m.TotalMB - m.IdleOSMB }

// Storage describes the flash storage subsystem.
type Storage struct {
	Kind          string
	TotalGB       float64
	SeqReadMBs    float64
	SeqWriteMBs   float64
	RandReadIOPS  float64
	RandWriteIOPS float64
}

// Display describes the attached panel.
type Display struct {
	Width, Height int
	RefreshHz     float64
}

// Pixels returns the pixel count of the display.
func (d Display) Pixels() int { return d.Width * d.Height }

// Platform is a complete hardware description.
type Platform struct {
	Name     string
	OSName   string
	Clusters [NumClusters]CPUCluster
	// L3 is shared by all CPU clusters; SLC is the SoC-wide system cache.
	L3, SLC CacheGeometry
	GPU     GPU
	AIE     AIE
	Memory  Memory
	Storage Storage
	Display Display
}

// TotalCores returns the number of CPU cores across all clusters.
func (p *Platform) TotalCores() int {
	n := 0
	for _, c := range p.Clusters {
		n += c.NumCores
	}
	return n
}

// PeakInstrPerSec returns the theoretical peak instruction throughput across
// all CPU cores, used to sanity-check calibrations.
func (p *Platform) PeakInstrPerSec() float64 {
	total := 0.0
	for _, c := range p.Clusters {
		total += float64(c.NumCores) * c.MaxFreqHz * float64(c.IssueWidth)
	}
	return total
}

// Validate checks the platform for internal consistency.
func (p *Platform) Validate() error {
	if p.TotalCores() == 0 {
		return fmt.Errorf("soc: platform %s has no CPU cores", p.Name)
	}
	for _, c := range p.Clusters {
		if c.NumCores < 0 {
			return fmt.Errorf("soc: cluster %s: negative core count", c.Kind)
		}
		if c.NumCores == 0 {
			continue
		}
		if c.MaxFreqHz <= 0 || c.MinFreqHz <= 0 || c.MinFreqHz > c.MaxFreqHz {
			return fmt.Errorf("soc: cluster %s: bad frequency range [%g, %g]", c.Kind, c.MinFreqHz, c.MaxFreqHz)
		}
		if len(c.FreqStepsHz) == 0 {
			return fmt.Errorf("soc: cluster %s: empty DVFS table", c.Kind)
		}
		for i := 1; i < len(c.FreqStepsHz); i++ {
			if c.FreqStepsHz[i] <= c.FreqStepsHz[i-1] {
				return fmt.Errorf("soc: cluster %s: DVFS table not ascending", c.Kind)
			}
		}
		if c.IssueWidth <= 0 {
			return fmt.Errorf("soc: cluster %s: non-positive issue width", c.Kind)
		}
		for _, g := range []CacheGeometry{c.L1I, c.L1D, c.L2} {
			if err := g.Validate(); err != nil {
				return err
			}
		}
	}
	for _, g := range []CacheGeometry{p.L3, p.SLC} {
		if err := g.Validate(); err != nil {
			return err
		}
	}
	if p.GPU.NumShaders <= 0 || p.GPU.MaxFreqHz <= 0 {
		return fmt.Errorf("soc: GPU %s under-specified", p.GPU.Name)
	}
	if p.Memory.TotalMB <= 0 || p.Memory.IdleOSMB < 0 || p.Memory.IdleOSMB >= p.Memory.TotalMB {
		return fmt.Errorf("soc: memory under-specified")
	}
	if p.Display.Pixels() <= 0 {
		return fmt.Errorf("soc: display under-specified")
	}
	return nil
}
