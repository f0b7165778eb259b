package sched

import (
	"testing"
	"testing/quick"

	"mobilebench/internal/soc"
)

func newEAS() *EAS { return NewEAS(soc.Snapdragon888HDK()) }

func TestLightTasksStayLittle(t *testing.T) {
	// Observation #8: light demand is satisfied by the efficient cores.
	s := newEAS()
	p := s.Place([]Task{{Demand: 0.1}, {Demand: 0.15}, {Demand: 0.05}})
	if p.Clusters[soc.Little].Util == 0 {
		t.Fatal("light tasks did not land on the Little cluster")
	}
	if p.Clusters[soc.Mid].Util != 0 || p.Clusters[soc.Big].Util != 0 {
		t.Fatalf("light tasks spilled upward: mid=%g big=%g",
			p.Clusters[soc.Mid].Util, p.Clusters[soc.Big].Util)
	}
}

func TestHeavySingleGoesBig(t *testing.T) {
	// Observation #7: heavy single threads upmigrate to the prime core.
	s := newEAS()
	p := s.Place([]Task{{Demand: 0.9}})
	if p.Clusters[soc.Big].Util < 0.85 {
		t.Fatalf("heavy task not on Big: big util %g", p.Clusters[soc.Big].Util)
	}
	if p.Clusters[soc.Little].Util > 0 {
		t.Fatal("heavy task leaked onto Little")
	}
}

func TestModerateTaskGoesMid(t *testing.T) {
	s := newEAS()
	p := s.Place([]Task{{Demand: 0.45}})
	if p.Clusters[soc.Mid].Util == 0 {
		t.Fatalf("moderate task not on Mid: %+v", p.Clusters)
	}
}

func TestMulticoreFloodsAllClusters(t *testing.T) {
	// Observation #9: only explicitly multi-core workloads light up every
	// cluster.
	s := newEAS()
	tasks := make([]Task, 8)
	for i := range tasks {
		tasks[i] = Task{Demand: 0.85}
	}
	p := s.Place(tasks)
	for _, k := range soc.Clusters() {
		if p.Clusters[k].Util < 0.5 {
			t.Fatalf("cluster %v underused during 8-thread flood: %g", k, p.Clusters[k].Util)
		}
	}
}

func TestSpillPrefersCompute(t *testing.T) {
	// With the Big core busy, the next heavy thread must prefer a Mid core
	// over a Little core.
	s := newEAS()
	p := s.Place([]Task{{Demand: 0.9}, {Demand: 0.9}})
	if p.Clusters[soc.Mid].Util == 0 {
		t.Fatalf("second heavy task should spill to Mid: %+v", p.Clusters)
	}
	if p.Clusters[soc.Little].Util > 0 {
		t.Fatal("heavy spill went to Little before Mid")
	}
}

func TestAffinityPin(t *testing.T) {
	s := newEAS()
	big := soc.Big
	p := s.Place([]Task{{Demand: 0.1, Affinity: &big}})
	if p.Clusters[soc.Big].Util == 0 {
		t.Fatal("pinned task ignored affinity")
	}
	if p.Clusters[soc.Little].Util != 0 {
		t.Fatal("pinned task leaked to Little")
	}
}

func TestOverflowAccounting(t *testing.T) {
	s := newEAS()
	// Far more demand than the platform can hold.
	tasks := make([]Task, 30)
	for i := range tasks {
		tasks[i] = Task{Demand: 1.0}
	}
	p := s.Place(tasks)
	total := 0.0
	for _, k := range soc.Clusters() {
		total += p.Clusters[k].Overflow
		if p.Clusters[k].Util > 1 {
			t.Fatalf("cluster %v utilization exceeds 1: %g", k, p.Clusters[k].Util)
		}
	}
	if total == 0 {
		t.Fatal("saturated platform reported no overflow")
	}
}

func TestZeroAndNegativeDemands(t *testing.T) {
	s := newEAS()
	p := s.Place([]Task{{Demand: 0}, {Demand: -1}})
	if p != (Placement{}) {
		t.Fatal("zero/negative demands produced utilization")
	}
}

func TestDeterminism(t *testing.T) {
	s := newEAS()
	tasks := []Task{{Demand: 0.8}, {Demand: 0.3}, {Demand: 0.1}, {Demand: 0.55}}
	a := s.Place(tasks)
	b := s.Place(tasks)
	if a != b {
		t.Fatalf("placement not deterministic: %+v vs %+v", a, b)
	}
}

func TestOrderIndependence(t *testing.T) {
	// Heaviest-first sorting makes placement independent of input order.
	s := newEAS()
	a := s.Place([]Task{{Demand: 0.8}, {Demand: 0.2}, {Demand: 0.5}})
	b := s.Place([]Task{{Demand: 0.2}, {Demand: 0.5}, {Demand: 0.8}})
	if a != b {
		t.Fatalf("placement depends on task order: %+v vs %+v", a, b)
	}
}

func TestActiveCores(t *testing.T) {
	s := newEAS()
	p := s.Place([]Task{{Demand: 0.1}, {Demand: 0.1}, {Demand: 0.1}})
	if p.Clusters[soc.Little].ActiveCores != 3 {
		t.Fatalf("active little cores = %d, want 3 (one per task)",
			p.Clusters[soc.Little].ActiveCores)
	}
}

func TestQuickUtilizationBounds(t *testing.T) {
	s := newEAS()
	f := func(demands []uint8) bool {
		tasks := make([]Task, 0, len(demands))
		for _, d := range demands {
			tasks = append(tasks, Task{Demand: float64(d) / 128})
		}
		p := s.Place(tasks)
		for _, k := range soc.Clusters() {
			c := p.Clusters[k]
			if c.Util < 0 || c.Util > 1+1e-9 || c.Overflow < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDemandConservation(t *testing.T) {
	// Placed work plus overflow must equal offered demand (in cluster-core
	// units the conversion varies, so check placed <= offered in big-core
	// units via capacity scaling).
	plat := soc.Snapdragon888HDK()
	s := NewEAS(plat)
	f := func(demands []uint8) bool {
		offered := 0.0
		tasks := make([]Task, 0, len(demands))
		for _, d := range demands {
			dem := float64(d) / 200
			offered += dem
			tasks = append(tasks, Task{Demand: dem})
		}
		p := s.Place(tasks)
		placedBigUnits := 0.0
		for _, k := range soc.Clusters() {
			placedBigUnits += p.Clusters[k].Util * float64(plat.Clusters[k].NumCores) * plat.Clusters[k].CapacityScale
		}
		return placedBigUnits <= offered+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
