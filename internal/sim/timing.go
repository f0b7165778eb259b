// The timing-model seam: every memory-occupancy and storage-service query
// the tick loop issues routes through a TimingModel, so the analytic
// in-process models can be swapped for an external co-simulated backend
// (internal/cosim) without the engine knowing the difference. The built-in
// default wraps the exact mem.Model/mem.Storage pair the loop used to call
// directly, so a nil Config.Timing is bit-identical to the pre-seam engine
// by construction.
package sim

import (
	"mobilebench/internal/mem"
	"mobilebench/internal/soc"
)

// TimingModel answers the tick loop's memory and storage timing queries.
// One instance serves one run at a time (the engine pools instances the way
// it pools cache hierarchies); implementations need not be safe for
// concurrent use, but distinct instances from one TimingProvider must be.
type TimingModel interface {
	// Step advances the model by one tick: the memory model moves toward
	// the phase's target footprint and the storage model services the
	// phase's IO demand, both over dt seconds.
	Step(target mem.Footprint, io mem.IODemand, dt float64) (mem.Result, mem.IOResult, error)
	// MemStep advances only the memory model — the fast-forward span path,
	// where IO is frozen and tiled instead of stepped.
	MemStep(target mem.Footprint, dt float64) (mem.Result, error)
	// Reset restores the just-constructed state, so a pooled instance is
	// bit-identical to a fresh one.
	Reset() error
	// TimingReport returns the backend's health notes accumulated since
	// the last Reset and whether it degraded to a fallback path in that
	// window. The engine reads it at the end of each run into
	// Result.TimingNotes / Result.TimingDegraded.
	TimingReport() (notes []string, degraded bool)
}

// TimingProvider mints TimingModel instances for an engine. Providers whose
// results are bit-identical to the in-process analytic models return "" from
// Fingerprint; any other identity string is folded into the checkpoint
// fingerprint so snapshots collected under different timing backends never
// silently resume each other.
type TimingProvider interface {
	// NewTimingModel builds one model instance for the platform's memory
	// and storage hardware. The engine calls it once per pooled model set.
	NewTimingModel(memHW soc.Memory, storHW soc.Storage) (TimingModel, error)
	// Fingerprint identifies the backend when (and only when) its replies
	// can differ from the in-process analytic models.
	Fingerprint() string
}

// analyticTiming is the built-in TimingModel: the exact mem.Model /
// mem.Storage pair the tick loop called before the seam existed.
type analyticTiming struct {
	mem *mem.Model
	io  *mem.Storage
}

func newAnalyticTiming(memHW soc.Memory, storHW soc.Storage) *analyticTiming {
	return &analyticTiming{mem: mem.NewModel(memHW), io: mem.NewStorage(storHW)}
}

func (t *analyticTiming) Step(target mem.Footprint, io mem.IODemand, dt float64) (mem.Result, mem.IOResult, error) {
	return t.mem.Step(target, dt), t.io.Step(io, dt), nil
}

func (t *analyticTiming) MemStep(target mem.Footprint, dt float64) (mem.Result, error) {
	return t.mem.Step(target, dt), nil
}

func (t *analyticTiming) Reset() error {
	t.mem.Reset() // the storage model is stateless
	return nil
}

// TimingReport implements TimingModel: the in-process models never restart
// or degrade, so they have nothing to report.
func (t *analyticTiming) TimingReport() ([]string, bool) { return nil, false }
