package dist

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// validFrames is one well-formed frame per type; shared with the fuzz
// seed corpus generator and the roundtrip test.
func validFrames() []Frame {
	return []Frame{
		{Type: TypeHello, Proto: ProtoVersion, Worker: "w1", Capacity: 2},
		{Type: TypeWelcome, Proto: ProtoVersion},
		{Type: TypeReject, Error: "protocol version 9 not supported"},
		{Type: TypeDispatch, Lease: "L-000001", Job: "job-000000", Spec: json.RawMessage(`{"kind":"characterize"}`), Checkpoint: "/state/job-000000.ckpt"},
		{Type: TypeHeartbeat},
		{Type: TypeResult, Lease: "L-000001", Job: "job-000000", Result: json.RawMessage(`{"units":[]}`)},
		{Type: TypeFail, Lease: "L-000001", Job: "job-000000", Error: "deadline exceeded"},
	}
}

func TestFrameRoundtrip(t *testing.T) {
	for _, f := range validFrames() {
		data, err := EncodeFrame(f)
		if err != nil {
			t.Fatalf("EncodeFrame(%+v): %v", f, err)
		}
		if !bytes.HasSuffix(data, []byte("\n")) {
			t.Fatalf("encoded frame is not newline-terminated: %q", data)
		}
		got, err := ParseFrame(data)
		if err != nil {
			t.Fatalf("ParseFrame(EncodeFrame(%+v)): %v", f, err)
		}
		// RawMessage fields compare by canonical re-marshal.
		want, _ := json.Marshal(f)
		gotJSON, _ := json.Marshal(got)
		if !bytes.Equal(want, gotJSON) {
			t.Fatalf("roundtrip changed the frame:\n  in  %s\n  out %s", want, gotJSON)
		}
	}
}

func TestParseFrameRejects(t *testing.T) {
	cases := []struct {
		name string
		line string
	}{
		{"empty", ""},
		{"not json", "hello world\n"},
		{"json array", "[1,2,3]\n"},
		{"no type", "{}\n"},
		{"unknown type", `{"type":"gossip"}` + "\n"},
		{"hello without proto", `{"type":"hello","worker":"w1","capacity":1}` + "\n"},
		{"hello without worker", `{"type":"hello","proto":1,"capacity":1}` + "\n"},
		{"hello zero capacity", `{"type":"hello","proto":1,"worker":"w1"}` + "\n"},
		{"dispatch without lease", `{"type":"dispatch","job":"j","spec":{}}` + "\n"},
		{"dispatch without spec", `{"type":"dispatch","lease":"L","job":"j"}` + "\n"},
		{"result without result", `{"type":"result","lease":"L","job":"j"}` + "\n"},
		{"fail without error", `{"type":"fail","lease":"L","job":"j"}` + "\n"},
		{"reject without error", `{"type":"reject"}` + "\n"},
		{"trailing data", `{"type":"welcome","proto":1} {"type":"welcome","proto":1}` + "\n"},
	}
	for _, tc := range cases {
		if _, err := ParseFrame([]byte(tc.line)); err == nil {
			t.Errorf("%s: ParseFrame accepted %q", tc.name, tc.line)
		}
	}
}

func TestParseFrameAllowsUnknownFields(t *testing.T) {
	// Forward compatibility: a newer peer may add fields; this build
	// must parse around them (the handshake version gate handles real
	// incompatibility).
	f, err := ParseFrame([]byte(`{"type":"welcome","proto":2,"future_field":"x"}` + "\n"))
	if err != nil {
		t.Fatalf("unknown field rejected: %v", err)
	}
	if f.Type != TypeWelcome || f.Proto != ProtoVersion {
		t.Fatalf("frame = %+v", f)
	}
}

func TestParseFrameSizeBound(t *testing.T) {
	huge := `{"type":"fail","lease":"L","job":"j","error":"` + strings.Repeat("x", MaxFrameBytes) + `"}`
	if _, err := ParseFrame([]byte(huge)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestEncodeFrameRejectsInvalid(t *testing.T) {
	if _, err := EncodeFrame(Frame{Type: "gossip"}); err == nil {
		t.Fatal("EncodeFrame accepted an unknown type")
	}
	if _, err := EncodeFrame(Frame{Type: TypeDispatch, Lease: "L", Job: "j", Spec: json.RawMessage(`{"bad`)}); err == nil {
		t.Fatal("EncodeFrame accepted an invalid spec document")
	}
}
