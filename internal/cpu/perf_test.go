package cpu

import (
	"testing"
	"testing/quick"

	"mobilebench/internal/soc"
)

func bigCluster() soc.CPUCluster    { return soc.Snapdragon888HDK().Clusters[soc.Big] }
func littleCluster() soc.CPUCluster { return soc.Snapdragon888HDK().Clusters[soc.Little] }

func TestIPCBoundedByWidth(t *testing.T) {
	mix := InstrMix{BaseILP: 100} // absurd ILP is clamped to [0.1, 8]
	ipc := IPC(bigCluster(), mix, MissProfile{}, DefaultPenalties(bigCluster()), Contention{})
	if ipc > float64(bigCluster().IssueWidth) {
		t.Fatalf("IPC %g exceeds issue width %d", ipc, bigCluster().IssueWidth)
	}
	little := littleCluster()
	ipc = IPC(little, mix, MissProfile{}, DefaultPenalties(little), Contention{})
	if ipc > float64(little.IssueWidth) {
		t.Fatalf("little IPC %g exceeds issue width %d", ipc, little.IssueWidth)
	}
}

func TestPerfectIPCEqualsBase(t *testing.T) {
	mix := InstrMix{BaseILP: 2.0}
	ipc := IPC(bigCluster(), mix, MissProfile{}, DefaultPenalties(bigCluster()), Contention{})
	if diff := ipc - 2.0; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("perfect-memory IPC = %g, want 2.0 (Big scale is 1.0)", ipc)
	}
}

func TestMissesLowerIPC(t *testing.T) {
	mix := InstrMix{BaseILP: 2.0, LoadStoreFrac: 0.3}
	pen := DefaultPenalties(bigCluster())
	clean := IPC(bigCluster(), mix, MissProfile{}, pen, Contention{})
	dirty := IPC(bigCluster(), mix, MissProfile{
		MissesPerInstr: [4]float64{0.02, 0.01, 0.005, 0.002},
	}, pen, Contention{})
	if dirty >= clean {
		t.Fatalf("cache misses did not lower IPC: %g >= %g", dirty, clean)
	}
}

func TestBranchMissesLowerIPC(t *testing.T) {
	mix := InstrMix{BaseILP: 2.0, BranchFrac: 0.2}
	pen := DefaultPenalties(bigCluster())
	clean := IPC(bigCluster(), mix, MissProfile{}, pen, Contention{})
	dirty := IPC(bigCluster(), mix, MissProfile{BranchMissPerInstr: 0.01}, pen, Contention{})
	if dirty >= clean {
		t.Fatalf("branch misses did not lower IPC: %g >= %g", dirty, clean)
	}
}

func TestGPUContentionLowersIPC(t *testing.T) {
	// The paper attributes graphics benchmarks' depressed IPC to cache and
	// bus contention from GPU traffic; DRAM-bound work must slow down when
	// the GPU bus is busy.
	mix := InstrMix{BaseILP: 2.0, LoadStoreFrac: 0.4}
	miss := MissProfile{MissesPerInstr: [4]float64{0.05, 0.03, 0.02, 0.01}}
	pen := DefaultPenalties(littleCluster())
	calm := IPC(littleCluster(), mix, miss, pen, Contention{})
	loud := IPC(littleCluster(), mix, miss, pen, Contention{GPUBusLoad: 0.9, MemBandwidthLoad: 0.5})
	if loud >= calm {
		t.Fatalf("GPU contention did not lower IPC: %g >= %g", loud, calm)
	}
}

func TestMemParallelismHelps(t *testing.T) {
	// Independent misses (streaming) overlap; dependent misses (pointer
	// chasing) serialize and must be slower.
	miss := MissProfile{MissesPerInstr: [4]float64{0.05, 0.04, 0.03, 0.02}}
	pen := DefaultPenalties(bigCluster())
	streaming := IPC(bigCluster(), InstrMix{BaseILP: 2, LoadStoreFrac: 0.5, MemParallelism: 1.0}, miss, pen, Contention{})
	chasing := IPC(bigCluster(), InstrMix{BaseILP: 2, LoadStoreFrac: 0.5, MemParallelism: 0.1}, miss, pen, Contention{})
	if chasing >= streaming {
		t.Fatalf("dependent misses not slower: %g >= %g", chasing, streaming)
	}
}

func TestMixClamp(t *testing.T) {
	m := InstrMix{LoadStoreFrac: 2, BranchFrac: -1, BaseILP: 100, MemParallelism: 7}.Clamp()
	if m.LoadStoreFrac > 0.8 || m.BranchFrac != 0 || m.BaseILP > 8 || m.MemParallelism != 1 {
		t.Fatalf("mix not clamped: %+v", m)
	}
	if (InstrMix{}).Clamp().MemParallelism != 1 {
		t.Fatal("zero MemParallelism should default to 1")
	}
}

func TestLittlePenaltiesDiffer(t *testing.T) {
	big := DefaultPenalties(bigCluster())
	little := DefaultPenalties(littleCluster())
	if little.MLP >= big.MLP {
		t.Fatal("in-order little core should have less memory-level parallelism")
	}
	if little.BranchCycles >= big.BranchCycles {
		t.Fatal("shallow little pipeline should have a cheaper misprediction")
	}
}

func TestTheoreticalMaxIPC(t *testing.T) {
	// The issue width is the theoretical IPC bound.
	if bigCluster().IssueWidth != 8 {
		t.Fatal("the paper cites a theoretical max IPC of 8 for the Big core")
	}
}

func TestQuickIPCPositiveBounded(t *testing.T) {
	pen := DefaultPenalties(bigCluster())
	f := func(ls, br, ilp, m1, m2, bm uint8) bool {
		mix := InstrMix{
			LoadStoreFrac: float64(ls) / 255,
			BranchFrac:    float64(br) / 255,
			BaseILP:       float64(ilp)/32 + 0.1,
		}
		miss := MissProfile{
			MissesPerInstr:     [4]float64{float64(m1) / 2550, float64(m2) / 2550, 0, 0},
			BranchMissPerInstr: float64(bm) / 2550,
		}
		ipc := IPC(bigCluster(), mix, miss, pen, Contention{})
		return ipc > 0 && ipc <= 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --- DVFS governors -------------------------------------------------------

func TestSchedutilRampsUp(t *testing.T) {
	g := NewSchedutil()
	cl := bigCluster()
	f := g.Next(cl, cl.MinFreqHz, 1.0)
	if f != cl.MaxFreqHz {
		t.Fatalf("full utilization should select max frequency, got %g", f)
	}
}

func TestSchedutilIdleFloor(t *testing.T) {
	g := NewSchedutil()
	cl := bigCluster()
	f := cl.MaxFreqHz
	for i := 0; i < 50; i++ {
		f = g.Next(cl, f, 0)
	}
	if f != cl.FreqStepsHz[0] {
		t.Fatalf("idle cluster should settle at the lowest OPP, got %g", f)
	}
}

func TestSchedutilHeadroom(t *testing.T) {
	g := NewSchedutil()
	cl := bigCluster()
	f := g.Next(cl, cl.MinFreqHz, 0.5)
	// 1.25 x 0.5 x max = 0.625 max, quantized up.
	if f < 0.625*cl.MaxFreqHz {
		t.Fatalf("frequency %g below schedutil target for 50%% utilization", f)
	}
	if f > 0.75*cl.MaxFreqHz {
		t.Fatalf("frequency %g overshoots for 50%% utilization", f)
	}
}

func TestSchedutilDownRateLimited(t *testing.T) {
	g := NewSchedutil()
	cl := bigCluster()
	f := g.Next(cl, cl.MaxFreqHz, 0)
	if f <= cl.MinFreqHz {
		t.Fatal("frequency dropped to the floor in one step")
	}
	if f >= cl.MaxFreqHz {
		t.Fatal("frequency did not drop at all")
	}
}

func TestQuantizeToOPPs(t *testing.T) {
	g := NewSchedutil()
	cl := bigCluster()
	f := g.Next(cl, cl.MinFreqHz, 0.37)
	found := false
	for _, s := range cl.FreqStepsHz {
		if s == f {
			found = true
		}
	}
	if !found {
		t.Fatalf("selected frequency %g is not an operating point", f)
	}
}

func TestSchedutilClampUtilization(t *testing.T) {
	g := NewSchedutil()
	cl := bigCluster()
	if f := g.Next(cl, cl.MinFreqHz, 5.0); f != cl.MaxFreqHz {
		t.Fatal("over-unity utilization should clamp to max frequency")
	}
	if f := g.Next(cl, cl.MinFreqHz, -3); f < cl.MinFreqHz {
		t.Fatal("negative utilization produced sub-minimum frequency")
	}
}
