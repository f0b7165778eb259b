// Package cosim is the supervised external-process timing backend: a
// sim.TimingProvider that answers the engine's memory/storage timing
// queries by co-simulating with a child process over a versioned JSON-lines
// protocol on the child's stdin/stdout.
//
// The protocol keeps the child a pure function server. Model state travels
// inside each query as an opaque document the parent threads from the
// previous reply, so the child holds no conversation state at all: queries
// from concurrent runs may interleave freely, a restarted child resumes
// mid-run without warm-up, and every accepted reply is cacheable by its
// query bytes — the property the deterministic replay log is built on.
//
//	parent → child   {"type":"hello","proto":1,"memory":{...},"storage":{...}}
//	child  → parent  {"type":"welcome","proto":1,"model":"analytic","exact":true}
//	                 (or {"type":"reject","error":"..."})
//	parent → child   {"type":"batch","id":7,"queries":[{"kind":"mem",...},{"kind":"io",...}]}
//	child  → parent  {"type":"replies","id":7,"replies":[{...},{...}]}
//
// Failure handling lives entirely in the parent-side Supervisor: per-query
// deadlines, EOF crash detection, capped deterministically-jittered restart
// backoff, and a circuit breaker that degrades to the in-process analytic
// models after repeated strikes — recorded in the run's provenance.
package cosim

import (
	"encoding/json"
	"fmt"

	"mobilebench/internal/mem"
	"mobilebench/internal/soc"
	"mobilebench/internal/wire"
)

// ProtoVersion is the wire-protocol version this build speaks. A welcome
// carrying any other version is a permanent handshake failure — version
// skew never burns restart strikes, because restarting cannot fix it.
const ProtoVersion = 1

// MaxFrameBytes bounds one encoded frame, its newline excluded. Timing
// queries and replies are small JSON documents; anything larger is a
// protocol error, not a buffer to grow for.
const MaxFrameBytes = 1 << 20

// Frame types.
const (
	TypeHello   = "hello"   // parent → child: handshake open, carries the HW description
	TypeWelcome = "welcome" // child → parent: handshake accept, names the model
	TypeReject  = "reject"  // child → parent: handshake refuse
	TypeBatch   = "batch"   // parent → child: answer these timing queries
	TypeReplies = "replies" // child → parent: the batch's replies, in query order
)

// Query kinds.
const (
	// KindMem asks for one memory-occupancy step (mem.StepFrom).
	KindMem = "mem"
	// KindIO asks for one storage-service step (mem.ServiceIO).
	KindIO = "io"
)

// Query is one timing question. State is the opaque model-state document
// the previous reply of the same kind returned (absent on the first step of
// a run), threaded by the parent so the child stays stateless.
type Query struct {
	Kind string `json:"kind"`
	// DT is the tick length in seconds.
	DT float64 `json:"dt"`
	// Target is the phase's target footprint (mem queries).
	Target *mem.Footprint `json:"target,omitempty"`
	// IO is the phase's storage demand (io queries).
	IO *mem.IODemand `json:"io,omitempty"`
	// State is the opaque model state threaded from the previous reply.
	State json.RawMessage `json:"state,omitempty"`
}

// Reply answers one Query, in batch order.
type Reply struct {
	// Mem is the memory result (mem queries).
	Mem *mem.Result `json:"mem,omitempty"`
	// IO is the storage result (io queries).
	IO *mem.IOResult `json:"io,omitempty"`
	// State is the model state to thread into the kind's next query.
	State json.RawMessage `json:"state,omitempty"`
	// Degraded marks a reply computed by the supervisor's in-process
	// fallback instead of the child. It is supervisor provenance, not wire
	// data — the supervisor clears it on every child reply — but it
	// persists in the replay log, so a logged fallback reply keeps its
	// degraded provenance when a later (healthy) run replays it.
	Degraded bool `json:"degraded,omitempty"`
}

// Frame is one protocol message. Which fields are meaningful depends on
// Type; Validate enforces the per-type requirements. Unknown fields are
// ignored on decode, so older parents interoperate with newer children.
type Frame struct {
	Type string `json:"type"`
	// Proto is the protocol version (hello, welcome).
	Proto int `json:"proto,omitempty"`
	// Memory and Storage describe the simulated hardware (hello); the
	// child computes against exactly this platform.
	Memory  *soc.Memory  `json:"memory,omitempty"`
	Storage *soc.Storage `json:"storage,omitempty"`
	// Model names the child's timing model (welcome).
	Model string `json:"model,omitempty"`
	// Exact marks a model whose replies are bit-identical to the
	// in-process analytic path (welcome). Exact backends share checkpoint
	// fingerprints with in-process collection; others get their own.
	Exact bool `json:"exact,omitempty"`
	// ID matches replies to their batch (batch, replies).
	ID uint64 `json:"id,omitempty"`
	// Queries carries the batch's questions (batch).
	Queries []Query `json:"queries,omitempty"`
	// Replies carries the answers in query order (replies).
	Replies []Reply `json:"replies,omitempty"`
	// Error is the failure cause (reject).
	Error string `json:"error,omitempty"`
}

// ProtoError reports a frame that failed decoding or validation. The
// supervisor counts it as a strike against the child that produced it.
type ProtoError = wire.ProtoError

// ParseFrame decodes and validates one frame line (see wire.Parse).
func ParseFrame(line []byte) (Frame, error) { return wire.Parse[Frame](line, MaxFrameBytes) }

// EncodeFrame serializes a validated frame as one newline-terminated JSON
// line, the exact bytes ParseFrame accepts back.
func EncodeFrame(f Frame) ([]byte, error) { return wire.Encode(f, MaxFrameBytes) }

// Validate enforces the per-type required fields.
func (f Frame) Validate() error {
	switch f.Type {
	case TypeHello:
		if f.Proto <= 0 {
			return &ProtoError{Reason: "hello without a positive proto version"}
		}
		if f.Memory == nil || f.Storage == nil {
			return &ProtoError{Reason: "hello without the memory and storage hardware description"}
		}
	case TypeWelcome:
		if f.Proto <= 0 {
			return &ProtoError{Reason: "welcome without a positive proto version"}
		}
		if f.Model == "" {
			return &ProtoError{Reason: "welcome without a model name"}
		}
	case TypeReject:
		if f.Error == "" {
			return &ProtoError{Reason: "reject without an error"}
		}
	case TypeBatch:
		if len(f.Queries) == 0 {
			return &ProtoError{Reason: "batch without queries"}
		}
		for i, q := range f.Queries {
			if err := q.validate(); err != nil {
				return &ProtoError{Reason: fmt.Sprintf("batch query %d: %v", i, err)}
			}
		}
	case TypeReplies:
		if len(f.Replies) == 0 {
			return &ProtoError{Reason: "replies without replies"}
		}
		for i, r := range f.Replies {
			if len(r.State) > 0 && !json.Valid(r.State) {
				return &ProtoError{Reason: fmt.Sprintf("reply %d carries an invalid state document", i)}
			}
		}
	case "":
		return &ProtoError{Reason: "frame without a type"}
	default:
		return &ProtoError{Reason: fmt.Sprintf("unknown frame type %q", f.Type)}
	}
	return nil
}

func (q Query) validate() error {
	switch q.Kind {
	case KindMem:
		if q.Target == nil {
			return fmt.Errorf("mem query without a target footprint")
		}
	case KindIO:
		if q.IO == nil {
			return fmt.Errorf("io query without a demand")
		}
	default:
		return fmt.Errorf("unknown query kind %q", q.Kind)
	}
	if q.DT <= 0 {
		return fmt.Errorf("query without a positive dt")
	}
	if len(q.State) > 0 && !json.Valid(q.State) {
		return fmt.Errorf("query carries an invalid state document")
	}
	return nil
}

// queryKey renders a query's canonical replay-log key: the full encoded
// query document. Keying by the complete bytes (not a hash fold) makes
// cache collisions impossible rather than merely improbable — two distinct
// queries can never serve each other's replies. Go's encoding/json renders
// float64 values with the shortest round-tripping decimal, so equal inputs
// key identically across processes.
func queryKey(q Query) (string, error) {
	data, err := json.Marshal(q)
	if err != nil {
		return "", &ProtoError{Reason: "unencodable query: " + err.Error()}
	}
	return string(data), nil
}
