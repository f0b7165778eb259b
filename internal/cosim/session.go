// The sim-facing adapter: Provider plugs a Supervisor into sim.Config as a
// TimingProvider, and each run gets its own Session — a sim.TimingModel
// that turns every tick into a protocol batch and threads the opaque model
// state between queries. Sessions of concurrent runs share one supervisor
// (and one child) safely, because the protocol is stateless per query.
package cosim

import (
	"encoding/json"
	"fmt"

	"mobilebench/internal/mem"
	"mobilebench/internal/sim"
	"mobilebench/internal/soc"
)

// Provider adapts a Supervisor to sim.TimingProvider. One Provider serves
// any number of runs; Close it after the collection (it owns the
// supervisor).
type Provider struct {
	sup *Supervisor
}

// NewProvider builds the supervisor (spawning and handshaking the child)
// and wraps it for sim.Config.Timing.
func NewProvider(cfg Config) (*Provider, error) {
	sup, err := NewSupervisor(cfg)
	if err != nil {
		return nil, err
	}
	return &Provider{sup: sup}, nil
}

// Supervisor exposes the underlying supervisor (tests and status surfaces).
func (p *Provider) Supervisor() *Supervisor { return p.sup }

// Close shuts the supervisor down (kills the child, flushes the replay
// log).
func (p *Provider) Close() error { return p.sup.Close() }

// Fingerprint implements sim.TimingProvider. An exact child returns "" —
// its datasets are bit-identical to in-process collection and share its
// checkpoint fingerprint. Any other model contributes its name, so
// snapshots collected under different timing never cross-resume.
func (p *Provider) Fingerprint() string {
	if p.sup.Exact() {
		return ""
	}
	return "cosim:" + p.sup.Model()
}

// NewTimingModel implements sim.TimingProvider.
func (p *Provider) NewTimingModel(memHW soc.Memory, storHW soc.Storage) (sim.TimingModel, error) {
	// The child computed against the hardware pinned in the handshake; a
	// platform mismatch here would silently answer for the wrong SoC.
	if memHW != p.sup.cfg.MemHW || storHW != p.sup.cfg.StorHW {
		return nil, fmt.Errorf("cosim: platform mismatch: the supervisor handshook a different memory/storage description")
	}
	return &Session{sup: p.sup}, nil
}

// Session is one run's view of the external model: it batches the tick's
// memory and storage queries into one frame and threads each kind's opaque
// state document from reply to query. Implements sim.TimingModel,
// including its per-run health report. Not safe for concurrent use (one
// Session per run, like the in-process models).
type Session struct {
	sup      *Supervisor
	memState json.RawMessage
	ioState  json.RawMessage
	notes    []string
	degraded bool
}

// Step implements sim.TimingModel: one tick's memory and storage questions
// as a single two-query batch.
func (s *Session) Step(target mem.Footprint, io mem.IODemand, dt float64) (mem.Result, mem.IOResult, error) {
	reps, info, err := s.sup.Exchange([]Query{
		{Kind: KindMem, DT: dt, Target: &target, State: s.memState},
		{Kind: KindIO, DT: dt, IO: &io, State: s.ioState},
	})
	if err != nil {
		return mem.Result{}, mem.IOResult{}, err
	}
	s.fold(info)
	if reps[0].Mem == nil || reps[1].IO == nil {
		return mem.Result{}, mem.IOResult{}, &ProtoError{Reason: "reply misses its result"}
	}
	s.memState, s.ioState = reps[0].State, reps[1].State
	return *reps[0].Mem, *reps[1].IO, nil
}

// MemStep implements sim.TimingModel for the fast-forward path, which
// advances memory occupancy without storage service.
func (s *Session) MemStep(target mem.Footprint, dt float64) (mem.Result, error) {
	reps, info, err := s.sup.Exchange([]Query{
		{Kind: KindMem, DT: dt, Target: &target, State: s.memState},
	})
	if err != nil {
		return mem.Result{}, err
	}
	s.fold(info)
	if reps[0].Mem == nil {
		return mem.Result{}, &ProtoError{Reason: "reply misses its mem result"}
	}
	s.memState = reps[0].State
	return *reps[0].Mem, nil
}

// Reset implements sim.TimingModel: a fresh run starts from empty model
// state and clean provenance.
func (s *Session) Reset() error {
	s.memState, s.ioState = nil, nil
	s.notes = nil
	s.degraded = false
	return nil
}

// TimingReport implements sim.TimingModel: the supervision events and
// degradation flag accumulated since the last Reset, which the engine
// copies into the run's provenance.
func (s *Session) TimingReport() ([]string, bool) {
	return s.notes, s.degraded
}

// fold merges one exchange's supervision events into the run's report.
func (s *Session) fold(info ExchangeInfo) {
	s.notes = append(s.notes, info.Notes...)
	if info.Degraded && !s.degraded {
		s.degraded = true
		if len(info.Notes) == 0 {
			// The circuit opened in an earlier run; this run never saw the
			// transition note but its data is fallback-computed all the same.
			s.notes = append(s.notes, "cosim: run answered by the degraded in-process fallback")
		}
	}
}
