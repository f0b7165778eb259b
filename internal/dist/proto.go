// Package dist is the distribution layer behind a multi-process mbserved
// fleet: a coordinator shards jobs across worker processes over a
// versioned JSON-lines protocol (handshake, lease, heartbeat, result
// frames), drops a worker that falls silent or loses its connection,
// revokes its leases and re-dispatches their jobs elsewhere (the collection
// resumes from its checkpoint log bit-identically), and backs the
// serving layer's dedup story with a content-addressed result cache plus
// request coalescing.
//
// The protocol is one JSON object per line in each direction:
//
//	worker → coordinator   {"type":"hello","proto":2,"worker":"w1","capacity":1}
//	coordinator → worker   {"type":"welcome","proto":2}        (or "reject")
//	coordinator → worker   {"type":"dispatch","lease":"L1","job":"job-000000",
//	                        "spec":{...},"checkpoint":"/state/job-000000.ckpt"}
//	worker → coordinator   {"type":"heartbeat"}   (periodic, once per session)
//	worker → coordinator   {"type":"result","lease":"L1","job":"...","result":{...}}
//	worker → coordinator   {"type":"fail","lease":"L1","job":"...","error":"..."}
//
// Liveness is per worker, not per lease: the coordinator stamps a worker's
// clock on every frame it reads from it and drops the worker — revoking
// every lease it holds — once the clock is older than the lease TTL.
//
// Workers and the coordinator share a filesystem for checkpoint and state
// files (one box, or a shared volume): the dispatch frame names the
// checkpoint path, so whichever worker picks a job up — including a
// re-dispatch after a kill -9 — resumes exactly where the last one
// durably stopped.
package dist

import (
	"encoding/json"
	"fmt"

	"mobilebench/internal/wire"
)

// ProtoVersion is the wire-protocol version this build speaks. A hello
// carrying any other version is rejected during the handshake, before a
// single job frame is exchanged. Version 2 made the heartbeat a bare
// per-session frame; a version-1 coordinator would tear such a worker down.
const ProtoVersion = 2

// MaxFrameBytes bounds one encoded frame, its newline excluded. Specs and
// results are small JSON documents; anything larger is a protocol error,
// not a buffer to grow for.
const MaxFrameBytes = 8 << 20

// MaxSpecBytes bounds the spec a dispatch frame may carry: the frame
// bound minus generous slack for the frame's own fields (type, lease, job
// ID, checkpoint path, JSON escaping). Specs that embed their dataset —
// a streamreport's record log — can genuinely approach this, so the
// coordinator refuses them up front with a typed error instead of letting
// the encoded frame blow the protocol bound mid-dispatch.
const MaxSpecBytes = MaxFrameBytes - (64 << 10)

// SpecTooLargeError reports a spec too large to dispatch over the fleet
// protocol. The job fails cleanly (no worker ever saw it); the client
// should shrink the spec — for a streamreport, analyze fewer records or
// run against a single-process server, which dispatches nothing.
type SpecTooLargeError struct {
	Bytes, Max int
}

// Error implements error.
func (e *SpecTooLargeError) Error() string {
	return fmt.Sprintf("dist: spec of %d bytes exceeds the %d-byte dispatch bound", e.Bytes, e.Max)
}

// Frame types.
const (
	TypeHello     = "hello"     // worker → coordinator: handshake open
	TypeWelcome   = "welcome"   // coordinator → worker: handshake accept
	TypeReject    = "reject"    // coordinator → worker: handshake refuse
	TypeDispatch  = "dispatch"  // coordinator → worker: run this job under this lease
	TypeHeartbeat = "heartbeat" // worker → coordinator: worker is alive
	TypeResult    = "result"    // worker → coordinator: job finished
	TypeFail      = "fail"      // worker → coordinator: job failed
)

// Frame is one protocol message. Which fields are meaningful depends on
// Type; Validate enforces the per-type requirements.
type Frame struct {
	Type string `json:"type"`
	// Proto is the protocol version (hello, welcome).
	Proto int `json:"proto,omitempty"`
	// Worker names the worker (hello).
	Worker string `json:"worker,omitempty"`
	// Capacity is how many jobs the worker runs concurrently (hello).
	Capacity int `json:"capacity,omitempty"`
	// Lease identifies one dispatched execution (dispatch, result, fail).
	Lease string `json:"lease,omitempty"`
	// Job is the job ID the lease executes (dispatch, result, fail).
	Job string `json:"job,omitempty"`
	// Spec is the job's opaque specification (dispatch).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Checkpoint is the job's checkpoint-log path on the shared filesystem
	// (dispatch).
	Checkpoint string `json:"checkpoint,omitempty"`
	// Result is the job's output (result).
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the failure cause (fail, reject).
	Error string `json:"error,omitempty"`
}

// ProtoError reports a frame that failed decoding or validation. The
// connection carrying it is broken and must be torn down; leases ride on
// connection health, so the jobs it carried are re-dispatched.
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
		if f.Worker == "" {
			return &ProtoError{Reason: "hello without a worker id"}
		}
		if f.Capacity <= 0 {
			return &ProtoError{Reason: "hello without a positive capacity"}
		}
	case TypeWelcome:
		if f.Proto <= 0 {
			return &ProtoError{Reason: "welcome without a positive proto version"}
		}
	case TypeReject:
		if f.Error == "" {
			return &ProtoError{Reason: "reject without an error"}
		}
	case TypeDispatch:
		if f.Lease == "" || f.Job == "" {
			return &ProtoError{Reason: "dispatch without lease and job ids"}
		}
		if len(f.Spec) == 0 || !json.Valid(f.Spec) {
			return &ProtoError{Reason: "dispatch without a valid spec document"}
		}
	case TypeHeartbeat:
	case TypeResult:
		if f.Lease == "" || f.Job == "" {
			return &ProtoError{Reason: "result without lease and job ids"}
		}
		if len(f.Result) == 0 || !json.Valid(f.Result) {
			return &ProtoError{Reason: "result without a valid result document"}
		}
	case TypeFail:
		if f.Lease == "" || f.Job == "" {
			return &ProtoError{Reason: "fail without lease and job ids"}
		}
		if f.Error == "" {
			return &ProtoError{Reason: "fail without an error"}
		}
	case "":
		return &ProtoError{Reason: "frame without a type"}
	default:
		return &ProtoError{Reason: fmt.Sprintf("unknown frame type %q", f.Type)}
	}
	return nil
}
