package wire_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"mobilebench/internal/wire"
)

type frame struct {
	Type string `json:"type"`
	Pad  string `json:"pad,omitempty"`
}

func (f frame) Validate() error {
	if f.Type == "" {
		return &wire.ProtoError{Reason: "frame without a type"}
	}
	return nil
}

// overhead is the encoded size of a type-"x" frame with an empty pad.
const overhead = len(`{"type":"x","pad":""}`)

// sized returns the encoding of a frame exactly n bytes long, newline
// excluded.
func sized(t *testing.T, n int) []byte {
	t.Helper()
	data, err := json.Marshal(frame{Type: "x", Pad: strings.Repeat("p", n-overhead)})
	if err != nil || len(data) != n {
		t.Fatalf("sized(%d): %d bytes, %v", n, len(data), err)
	}
	return data
}

func line(b []byte) []byte { return append(append([]byte(nil), b...), '\n') }

// TestStreamNext: the bound covers a frame's bytes without its newline — the
// quantity Encode checks — so every frame the encoder accepts reads back,
// and a line over the bound is a *ProtoError that leaves the stream
// readable at the next frame.
func TestStreamNext(t *testing.T) {
	const bound = 100 << 10 // larger than the 64 KiB read buffer
	small := line([]byte(`{"type":"s"}`))
	cases := []struct {
		name   string
		bound  int
		stream func(t *testing.T) []byte
		// want lists the reads in order: a pad length for a frame,
		// "proto" for a *ProtoError; io.EOF follows the last.
		want []any
	}{
		{"exact bound round-trips", bound, func(t *testing.T) []byte {
			data, err := wire.Encode(frame{Type: "x", Pad: strings.Repeat("p", bound-overhead)}, bound)
			if err != nil {
				t.Fatalf("Encode at the bound: %v", err)
			}
			return data
		}, []any{bound - overhead}},
		{"exact 8 MiB bound round-trips", 8 << 20, func(t *testing.T) []byte {
			return line(sized(t, 8<<20))
		}, []any{8<<20 - overhead}},
		{"bound+1 is a protocol error, then the stream goes on", bound, func(t *testing.T) []byte {
			return append(line(sized(t, bound+1)), small...)
		}, []any{"proto", 0}},
		{"line split across the read buffer", bound, func(t *testing.T) []byte {
			return append(append([]byte(nil), small...), line(sized(t, 70<<10))...)
		}, []any{0, 70<<10 - overhead}},
		{"final line without a newline at EOF", bound, func(t *testing.T) []byte {
			return append(append([]byte(nil), small...), sized(t, 100)...)
		}, []any{0, 100 - overhead}},
		{"trailing data after the object", bound, func(t *testing.T) []byte {
			return append([]byte(`{"type":"x"} {"type":"y"}`+"\n"), small...)
		}, []any{"proto", 0}},
		{"invalid frame", bound, func(t *testing.T) []byte {
			return []byte(`{"pad":"no type"}` + "\n")
		}, []any{"proto"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := wire.NewStream[frame](bytes.NewReader(tc.stream(t)), nil, tc.bound)
			for i, want := range append(tc.want, io.EOF) {
				f, err := r.Next()
				var perr *wire.ProtoError
				switch want := want.(type) {
				case int:
					if err != nil || len(f.Pad) != want {
						t.Fatalf("read %d: pad %d, err %v; want a frame with pad %d", i, len(f.Pad), err, want)
					}
				case string:
					if !errors.As(err, &perr) {
						t.Fatalf("read %d: err %v, want a *ProtoError", i, err)
					}
				case error:
					if !errors.Is(err, want) {
						t.Fatalf("read %d: err %v, want %v", i, err, want)
					}
				}
			}
		})
	}
}

// TestEncodeParseBound: Encode and Parse agree on the bound, with or
// without the newline.
func TestEncodeParseBound(t *testing.T) {
	const bound = 4096
	data, err := wire.Encode(frame{Type: "x", Pad: strings.Repeat("p", bound-overhead)}, bound)
	if err != nil {
		t.Fatalf("Encode at the bound: %v", err)
	}
	for _, l := range [][]byte{data, bytes.TrimSuffix(data, []byte("\n"))} {
		if _, err := wire.Parse[frame](l, bound); err != nil {
			t.Fatalf("Parse of an encoded frame at the bound: %v", err)
		}
	}
	var perr *wire.ProtoError
	if _, err := wire.Encode(frame{Type: "x", Pad: strings.Repeat("p", bound-overhead+1)}, bound); !errors.As(err, &perr) {
		t.Fatalf("Encode over the bound: err %v, want *ProtoError", err)
	}
	if _, err := wire.Parse[frame](sized(t, bound+1), bound); !errors.As(err, &perr) {
		t.Fatalf("Parse over the bound: err %v, want *ProtoError", err)
	}
	if _, err := wire.Encode(frame{}, bound); !errors.As(err, &perr) {
		t.Fatalf("Encode of an invalid frame: err %v, want *ProtoError", err)
	}
}

// TestParseAllowsUnknownFields: peers one protocol version apart still
// exchange frames.
func TestParseAllowsUnknownFields(t *testing.T) {
	f, err := wire.Parse[frame]([]byte(`{"type":"x","future":{"a":1}}`), 100)
	if err != nil || f.Type != "x" {
		t.Fatalf("Parse = %+v, %v", f, err)
	}
}

// TestStreamSendSerializesSenders: concurrent senders never interleave bytes
// within a frame.
func TestStreamSendSerializesSenders(t *testing.T) {
	const senders, each = 8, 50
	var buf bytes.Buffer
	w := wire.NewStream[frame](nil, &buf, 1<<10)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := w.Send(frame{Type: fmt.Sprint(s), Pad: strings.Repeat("p", i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	r := wire.NewStream[frame](&buf, nil, 1<<10)
	n := 0
	for {
		if _, err := r.Next(); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		n++
	}
	if n != senders*each {
		t.Fatalf("read %d frames, want %d", n, senders*each)
	}
}
