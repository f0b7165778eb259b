// Package sched models the OS task scheduler of a big.LITTLE mobile SoC.
//
// Android's kernel uses Energy-Aware Scheduling (EAS): task utilization is
// tracked in units of the biggest core's capacity, and the scheduler places
// each task on the smallest (most efficient) cluster that can accommodate it
// with headroom, spilling upward — and, under full-system load, back down
// onto whatever cores remain — only when necessary. This produces exactly
// the behaviours the paper observes: light workloads run entirely on the
// Little cluster (Observation #8), heavy single-threaded sections light up
// the Big prime core before the Mid cores (Observation #7), and only
// explicitly multi-core workloads load all clusters at once (Observation #9).
package sched

import (
	"mobilebench/internal/soc"
)

// Task is one runnable thread with a utilization demand expressed as a
// fraction of the Big core's full capacity (0..1+; >1 means the thread would
// saturate even the Big core).
type Task struct {
	// Demand is the task's capacity demand in Big-core units.
	Demand float64
	// Affinity optionally pins the task to a cluster (nil means any).
	Affinity *soc.ClusterKind
}

// ClusterLoad is the scheduling outcome for one cluster over an interval.
type ClusterLoad struct {
	// Util is the average per-core utilization (0..1) across the cluster's
	// cores, measured at maximum frequency.
	Util float64
	// ActiveCores is how many cores received any work.
	ActiveCores int
	// Overflow is demand (in cluster-core units) that could not be placed
	// because every core was saturated.
	Overflow float64
}

// Placement is the full scheduling outcome.
type Placement struct {
	Clusters [soc.NumClusters]ClusterLoad
}

// EAS is an energy-aware scheduler model.
//
// An EAS reuses internal placement buffers across Place calls and is
// therefore NOT safe for concurrent use; create one per goroutine (the
// simulation engine creates one per run). Placement results do not depend
// on the reuse: buffers are fully reset at the top of every Place call.
type EAS struct {
	plat *soc.Platform
	// FitMargin is the headroom factor for "task fits on cluster"
	// decisions; the kernel's fits_capacity() uses 1.25 (80% rule).
	FitMargin float64

	// cores is the per-call placement scratch. The core list is fixed by
	// the platform, so it is built once and only its free/used fields are
	// reset per call.
	cores []core
	// sorted is the per-call demand-ordered task scratch.
	sorted []Task
}

// NewEAS creates a scheduler for the platform.
func NewEAS(plat *soc.Platform) *EAS {
	e := &EAS{plat: plat, FitMargin: 1.25}
	for _, k := range soc.Clusters() {
		for i := 0; i < plat.Clusters[k].NumCores; i++ {
			e.cores = append(e.cores, core{kind: k})
		}
	}
	return e
}

type core struct {
	kind soc.ClusterKind
	free float64 // remaining capacity in cluster-core units
	used float64
}

// Place assigns the tasks to clusters and returns the per-cluster loads.
//
// Placement is deterministic. Tasks are considered heaviest-first (as
// wake-up balancing tends to achieve). Each task first looks for the most
// efficient cluster where it fits — its demand translated to that cluster's
// core units must leave the kernel's fit margin on the emptiest core. A task
// that fits nowhere (or whose preferred clusters are full) is spilled onto
// the core with the most free capacity anywhere; demand exceeding that
// core's capacity is recorded as overflow.
func (s *EAS) Place(tasks []Task) Placement {
	cores := s.cores
	for i := range cores {
		cores[i].free = 1
		cores[i].used = 0
	}

	sorted := append(s.sorted[:0], tasks...)
	s.sorted = sorted
	// Stable insertion sort, descending by demand: identical ordering to a
	// stable library sort, zero allocations, and fast for the few dozen
	// tasks a tick produces.
	for i := 1; i < len(sorted); i++ {
		t := sorted[i]
		j := i - 1
		for j >= 0 && sorted[j].Demand < t.Demand {
			sorted[j+1] = sorted[j]
			j--
		}
		sorted[j+1] = t
	}

	var overflow [soc.NumClusters]float64
	for _, t := range sorted {
		if t.Demand <= 0 {
			continue
		}
		if t.Affinity != nil {
			s.placeOnCluster(cores, *t.Affinity, t.Demand, &overflow)
			continue
		}
		if s.placePreferred(cores, t.Demand) {
			continue
		}
		s.placeSpill(cores, t.Demand, &overflow)
	}

	var out Placement
	for _, k := range soc.Clusters() {
		n, used, active := 0, 0.0, 0
		for _, c := range cores {
			if c.kind != k {
				continue
			}
			n++
			used += c.used
			if c.used > 1e-9 {
				active++
			}
		}
		if n > 0 {
			out.Clusters[k] = ClusterLoad{Util: used / float64(n), ActiveCores: active, Overflow: overflow[k]}
		}
	}
	return out
}

// placePreferred tries the efficiency-ordered clusters with the fit rule and
// reports whether the task was placed.
func (s *EAS) placePreferred(cores []core, demand float64) bool {
	for _, k := range soc.Clusters() {
		cap := s.plat.Clusters[k].CapacityScale
		need := demand / cap
		if need > 1/s.FitMargin {
			// The task would exceed the kernel's 80% fit threshold on
			// this cluster's cores; prefer a bigger cluster.
			continue
		}
		best := emptiestOf(cores, k)
		if best < 0 || cores[best].free < need {
			continue
		}
		cores[best].free -= need
		cores[best].used += need
		return true
	}
	return false
}

// placeSpill places demand on the core with the most free *compute*
// (free capacity scaled by the cluster's per-core capacity), clipping at
// the core's limit and recording the remainder as overflow. Preferring
// compute means a heavy thread that fits nowhere comfortably lands on the
// Big prime core first — the upmigration behaviour real kernels show.
func (s *EAS) placeSpill(cores []core, demand float64, overflow *[soc.NumClusters]float64) {
	best, bestScore := -1, 0.0
	for i := range cores {
		score := cores[i].free * s.plat.Clusters[cores[i].kind].CapacityScale
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		// Everything saturated; the work queues on the Big cluster.
		overflow[soc.Big] += demand
		return
	}
	k := cores[best].kind
	need := demand / s.plat.Clusters[k].CapacityScale
	take := need
	if take > cores[best].free {
		overflow[k] += take - cores[best].free
		take = cores[best].free
	}
	cores[best].free -= take
	cores[best].used += take
}

// placeOnCluster honours an affinity pin.
func (s *EAS) placeOnCluster(cores []core, k soc.ClusterKind, demand float64, overflow *[soc.NumClusters]float64) {
	need := demand / s.plat.Clusters[k].CapacityScale
	best := emptiestOf(cores, k)
	if best < 0 {
		overflow[k] += need
		return
	}
	take := need
	if take > cores[best].free {
		overflow[k] += take - cores[best].free
		take = cores[best].free
	}
	cores[best].free -= take
	cores[best].used += take
}

func emptiestOf(cores []core, k soc.ClusterKind) int {
	best, bestFree := -1, 0.0
	for i := range cores {
		if cores[i].kind != k {
			continue
		}
		if cores[i].free > bestFree {
			best, bestFree = i, cores[i].free
		}
	}
	return best
}
