package cosim_test

import (
	"testing"

	"mobilebench/internal/cosim"
	"mobilebench/internal/mem"
	"mobilebench/internal/soc"
)

// benchTarget/benchDemand are one representative tick's timing question: a
// mixed-residency footprint and a moderate storage load.
var (
	benchTarget = mem.Footprint{CPUHeapMB: 1800, GPUMB: 900, MediaMB: 120}
	benchDemand = mem.IODemand{SeqReadMBs: 220, RandReadIOPS: 3500, DatabaseOpsPerSec: 40}
)

// BenchmarkTimingModelInProcess is the per-tick cost of the in-process
// analytic timing pair — the exact math the default TimingModel runs.
func BenchmarkTimingModelInProcess(b *testing.B) {
	p := soc.Snapdragon888HDK()
	cur := mem.Footprint{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var res mem.Result
		res, cur = mem.StepFrom(p.Memory, cur, benchTarget, 0.1)
		io := mem.ServiceIO(p.Storage, benchDemand, 0.1)
		_, _ = res, io
	}
}

// BenchmarkTimingModelExternal is the same tick answered by a supervised
// external analytic child over the cosim protocol — the price of the
// process hop: JSON encode/decode, two pipe crossings and the supervision
// bookkeeping per tick.
func BenchmarkTimingModelExternal(b *testing.B) {
	p := soc.Snapdragon888HDK()
	provider, err := cosim.NewSupervisor(childConfig("", ""))
	if err != nil {
		b.Fatalf("NewSupervisor: %v", err)
	}
	defer provider.Close()
	tm, err := provider.NewTimingModel(p.Memory, p.Storage)
	if err != nil {
		b.Fatalf("NewTimingModel: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tm.Step(benchTarget, benchDemand, 0.1); err != nil {
			b.Fatalf("Step: %v", err)
		}
	}
}
