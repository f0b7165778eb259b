// Package wire is the JSON-lines framing shared by the fleet protocol
// (internal/dist) and the cosim timing-model protocol (internal/cosim): one
// JSON object per newline-terminated line. A protocol brings its frame type
// and size bound; this package owns the bytes. The bound counts a frame's
// bytes without its newline in Encode, Parse and Stream alike, so every
// frame the encoder accepts is one the peer reads. Unknown fields are
// ignored, so peers one protocol version apart interoperate, and no peer
// input makes it panic: every malformed line is a *ProtoError.
package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Frame is the constraint on a protocol's frame type: Validate enforces
// the per-type required fields, returning a *ProtoError when one is
// missing.
type Frame interface {
	Validate() error
}

// ProtoError reports a frame that failed decoding or validation.
type ProtoError struct {
	Reason string
}

// Error implements error.
func (e *ProtoError) Error() string { return "wire: protocol error: " + e.Reason }

func oversize(n, maxBytes int) error {
	return &ProtoError{Reason: fmt.Sprintf("frame of %d bytes exceeds the %d-byte bound", n, maxBytes)}
}

// Parse decodes and validates one frame line; a terminating newline is
// allowed and not counted against maxBytes. Malformed JSON, oversized
// lines, trailing data and frames failing Validate all return a
// *ProtoError.
func Parse[F Frame](line []byte, maxBytes int) (F, error) {
	var f, zero F
	line = bytes.TrimSuffix(line, []byte{'\n'})
	if len(line) > maxBytes {
		return zero, oversize(len(line), maxBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	if err := dec.Decode(&f); err != nil {
		return zero, &ProtoError{Reason: "undecodable frame: " + err.Error()}
	}
	// One object per line: trailing non-space bytes are a framing bug, not
	// data to be silently dropped.
	if dec.More() {
		return zero, &ProtoError{Reason: "trailing data after the frame object"}
	}
	if err := f.Validate(); err != nil {
		return zero, err
	}
	return f, nil
}

// Encode serializes a validated frame as one newline-terminated JSON line,
// the exact bytes Parse accepts back.
func Encode[F Frame](f F, maxBytes int) ([]byte, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	data, err := json.Marshal(f)
	if err != nil {
		return nil, &ProtoError{Reason: "unencodable frame: " + err.Error()}
	}
	if len(data) > maxBytes {
		return nil, oversize(len(data), maxBytes)
	}
	return append(data, '\n'), nil
}

// Stream carries frames over a reader and a writer. Next is for one
// goroutine at a time; Send may be called from any number.
type Stream[F Frame] struct {
	r        *bufio.Reader
	mu       sync.Mutex // serializes Send, so frames never interleave
	w        io.Writer
	maxBytes int
}

// NewStream returns a Stream whose frames are bounded by maxBytes.
func NewStream[F Frame](r io.Reader, w io.Writer, maxBytes int) *Stream[F] {
	return &Stream[F]{r: bufio.NewReaderSize(r, 64<<10), w: w, maxBytes: maxBytes}
}

// Next reads and parses the next frame; a final line without a newline
// still counts. An oversized line is consumed through its newline, never
// buffered beyond the bound, and reported as a *ProtoError, leaving the
// stream at the following frame. Read errors, io.EOF at a frame boundary
// included, are returned as they are.
func (s *Stream[F]) Next() (F, error) {
	var zero F
	var line []byte
	seen := 0
	for {
		chunk, err := s.r.ReadSlice('\n')
		if err == nil {
			chunk = chunk[:len(chunk)-1] // the newline is not frame bytes
		}
		seen += len(chunk)
		if len(line) <= s.maxBytes-len(chunk) { // buffer only what fits the bound
			line = append(line, chunk...)
		}
		switch {
		case errors.Is(err, bufio.ErrBufferFull):
		case err == nil || (errors.Is(err, io.EOF) && seen > 0):
			if seen > s.maxBytes {
				return zero, oversize(seen, s.maxBytes)
			}
			return Parse[F](line, s.maxBytes)
		default:
			return zero, err
		}
	}
}

// Send encodes f and writes it in a single Write call.
func (s *Stream[F]) Send(f F) error {
	data, err := Encode(f, s.maxBytes)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	//mblint:ignore mutexhold mu is this stream's dedicated write mutex — serializing writers across Write is its whole job, and a wedged peer stalls only its own stream (a fleet connection is reaped by the heartbeat deadline, a cosim child by the query deadline)
	_, err = s.w.Write(data)
	return err
}
