// The child side of the protocol: Serve is the loop cmd/mbtiming (and the
// test re-exec child) runs — read the hello, answer with a welcome naming
// the model, then answer batches until stdin closes. ServeOptions.Chaos
// turns the child into a deliberately misbehaving one for supervision
// tests: killing itself, hanging, emitting garbage, replying slowly or
// claiming a skewed protocol version on schedule.
package cosim

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"mobilebench/internal/checkpoint"
	"mobilebench/internal/fault"
	"mobilebench/internal/wire"
)

// ServeOptions configures one child process.
type ServeOptions struct {
	// Model names the timing model to serve ("" = analytic).
	Model string
	// Chaos schedules deliberate misbehavior (tests).
	Chaos fault.CosimConfig
}

// Serve runs the child loop: handshake, then batches until r reaches EOF
// (the parent closed our stdin — a normal shutdown). Protocol errors are
// returned; the caller exits non-zero so the parent's supervision sees a
// crash rather than a silent wedge.
func Serve(r io.Reader, w io.Writer, opts ServeOptions) error {
	if opts.Model == "" {
		opts.Model = ModelAnalytic
	}
	spawn, err := bumpSpawnCount(opts.Chaos.SpawnFile)
	if err != nil {
		return err
	}
	stream := wire.NewStream[Frame](r, w, MaxFrameBytes)
	hello, err := stream.Next()
	if errors.Is(err, io.EOF) {
		return nil // EOF before hello: parent went away, clean exit
	}
	if err != nil {
		return fmt.Errorf("cosim: reading hello: %w", err)
	}
	if hello.Type != TypeHello {
		return &ProtoError{Reason: fmt.Sprintf("expected hello, got %q", hello.Type)}
	}
	if hello.Proto != ProtoVersion {
		_ = stream.Send(Frame{Type: TypeReject, Error: fmt.Sprintf("parent speaks protocol %d, this child speaks %d", hello.Proto, ProtoVersion)})
		return &ProtoError{Reason: fmt.Sprintf("parent protocol %d unsupported", hello.Proto)}
	}
	answer, exact, err := modelFor(opts.Model, *hello.Memory, *hello.Storage)
	if err != nil {
		_ = stream.Send(Frame{Type: TypeReject, Error: err.Error()})
		return err
	}
	proto := ProtoVersion
	if opts.Chaos.SkewVersion || (opts.Chaos.SkewAfterSpawns > 0 && spawn > opts.Chaos.SkewAfterSpawns) {
		proto = ProtoVersion + 100
	}
	if err := stream.Send(Frame{Type: TypeWelcome, Proto: proto, Model: opts.Model, Exact: exact}); err != nil {
		return err
	}
	batch := 0
	for {
		f, err := stream.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("cosim: reading batches: %w", err)
		}
		if f.Type != TypeBatch {
			return &ProtoError{Reason: fmt.Sprintf("expected batch, got %q", f.Type)}
		}
		batch++
		plan := opts.Chaos.PlanForBatch(batch)
		if plan.Kill {
			os.Exit(3)
		}
		if plan.Hang {
			sleep(plan.HangSec)
		}
		if plan.Garbage {
			if _, err := io.WriteString(w, "}{ not a frame\n"); err != nil {
				return err
			}
			continue
		}
		reps := make([]Reply, len(f.Queries))
		for i, q := range f.Queries {
			if reps[i], err = answer(q); err != nil {
				return err
			}
		}
		if plan.SlowSec > 0 {
			sleep(plan.SlowSec)
		}
		if err := stream.Send(Frame{Type: TypeReplies, ID: f.ID, Replies: reps}); err != nil {
			return err
		}
	}
}

func sleep(sec float64) {
	t := time.NewTimer(time.Duration(sec * float64(time.Second)))
	<-t.C
}

// bumpSpawnCount increments the cross-process spawn counter ("" = no
// counting, spawn 1). Chaos specs use it to misbehave only from the Nth
// process on — e.g. version-skew the restarted child but not the first.
func bumpSpawnCount(path string) (int, error) {
	if path == "" {
		return 1, nil
	}
	n := 0
	if data, err := os.ReadFile(path); err == nil {
		if v, err := strconv.Atoi(strings.TrimSpace(string(data))); err == nil {
			n = v
		}
	}
	n++
	if err := checkpoint.WriteFile(path, []byte(strconv.Itoa(n)), 0o644); err != nil {
		return 0, err
	}
	return n, nil
}
