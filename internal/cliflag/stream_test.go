package cliflag

import (
	"flag"
	"io"
	"testing"
)

func parseStream(t *testing.T, args ...string) *Stream {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s := RegisterStream(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStreamFlagDefaults(t *testing.T) {
	s := parseStream(t)
	if s.Enable || s.KMin != 2 || s.KMax != 9 {
		t.Fatalf("defaults = %+v", s)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
}

func TestStreamFlagValidate(t *testing.T) {
	good := parseStream(t, "-stream", "-stream-kmin", "2", "-stream-kmax", "6")
	if err := good.Validate(); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	for _, args := range [][]string{
		{"-stream-kmax", "4"},            // tuning without -stream
		{"-stream", "-stream-kmin", "1"}, // kMin below 2
		{"-stream", "-stream-kmax", "1"}, // kMax below kMin
	} {
		if err := parseStream(t, args...).Validate(); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}
