// Package wire is the wireframe fixture for the shared framing package;
// its import path carries the "wire" segment, so the wire-protocol
// decoding conventions apply.
package wire

import (
	"bufio"
	"errors"
)

const maxFrame = 1 << 20

// readLineUnbounded grows a line off the wire without ever comparing its
// length against the bound.
func readLineUnbounded(r *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		chunk, err := r.ReadSlice('\n')
		line = append(line, chunk...) // want `line grows by self-append in a read loop but its length is never compared`
		if err == nil {
			return line, nil
		}
		if !errors.Is(err, bufio.ErrBufferFull) {
			return nil, err
		}
	}
}

// readLineBounded is the Stream.Next shape: growth stops at the bound.
func readLineBounded(r *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		chunk, err := r.ReadSlice('\n')
		line = append(line, chunk...)
		if len(line) > maxFrame {
			return nil, errors.New("frame too large")
		}
		if err == nil {
			return line, nil
		}
		if !errors.Is(err, bufio.ErrBufferFull) {
			return nil, err
		}
	}
}
