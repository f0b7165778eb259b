package lint

import (
	"go/types"
	"strings"
)

// Config is the lint policy the passes read. DefaultConfig is the one
// policy mblint enforces; tests build variants of it to probe a pass's
// scope. A finding the policy should not raise is accepted in place with a
// reasoned `//mblint:ignore <pass> <reason>`, never by a package exclusion.
type Config struct {
	// DeterministicPkgs lists import-path segments naming the packages
	// whose outputs must be bit-identical across runs; nondeterm forbids
	// wall clocks and global randomness inside them.
	DeterministicPkgs []string

	// AtomicAllowPkgs lists import-path segments allowed to call
	// os.Create/os.WriteFile directly — the packages that implement the
	// atomic-write primitives themselves.
	AtomicAllowPkgs []string

	// SafeCallPkgs lists standard-library packages whose calls do not
	// count as "work" for ctxloop: pure in-memory helpers a tight loop may
	// call without a cancellation point.
	SafeCallPkgs []string

	// Fingerprint lists the fpcomplete rules: structs whose
	// result-affecting fields must all be read by their fingerprint
	// pre-image builders (or sit on the execution-only allowlist).
	Fingerprint []FingerprintRule

	// WireframePkgs lists import-path segments naming the wire-protocol
	// packages wireframe checks (frame decoding conventions).
	WireframePkgs []string
}

// FingerprintRule binds one cache-identity struct to its pre-image
// builders. Struct is "segment.TypeName" — the segment matches any
// "/"-separated piece of the defining package's import path, so the
// same rule covers mobilebench/internal/server and a testdata fixture
// named server. Builders are function keys ("Spec.CacheKey",
// "Options.CheckpointCanonical") resolved in the package being
// analyzed; coverage is the union of their transitive field reads.
// Allow lists execution-only fields that never change result bytes.
type FingerprintRule struct {
	Struct   string
	Builders []string
	Allow    []string
}

// matchesType reports whether obj (a type name) is the rule's struct.
func (r FingerprintRule) matchesType(obj interface {
	Name() string
	Pkg() *types.Package
}) bool {
	i := strings.LastIndex(r.Struct, ".")
	if i < 0 || obj.Pkg() == nil {
		return false
	}
	seg, name := r.Struct[:i], r.Struct[i+1:]
	return obj.Name() == name && pathHasSegment(obj.Pkg().Path(), []string{seg})
}

// DefaultConfig returns this repository's checked-in lint policy.
func DefaultConfig() *Config {
	return &Config{
		DeterministicPkgs: []string{
			"core", "sim", "cluster", "stats", "subset", "fault", "checkpoint",
			// The timing protocol's replies and replay log feed the
			// simulated bytes, so a clock or global random draw there
			// would leak into results just as it would in sim.
			"cosim",
			// The counter path: traces are appended per tick, repaired
			// and averaged across runs from xrand's split streams, so
			// they must be free of map-iteration order and global
			// randomness just like the collection pipeline that feeds
			// them.
			"profiler", "trace", "xrand",
		},
		AtomicAllowPkgs: []string{"checkpoint"},
		Fingerprint: []FingerprintRule{
			// PR 7's incident class: the result cache key must bind every
			// result-affecting spec field. Workers and TimeoutSec only
			// shape execution (parallelism, deadline), never the bytes.
			{
				Struct:   "server.Spec",
				Builders: []string{"Spec.CacheKey"},
				Allow:    []string{"Workers", "TimeoutSec"},
			},
			// The checkpoint fingerprint's pre-image: Workers is
			// parallelism, Checkpoint/Resume name where the snapshot
			// lives, none of them change collected bytes.
			{
				Struct:   "core.Options",
				Builders: []string{"Options.CheckpointCanonical"},
				Allow:    []string{"Workers", "Checkpoint", "Resume"},
			},
		},
		WireframePkgs: []string{"wire", "dist", "cosim"},
		SafeCallPkgs: []string{
			"fmt", "strings", "strconv", "sort", "errors", "math", "math/bits",
			"bytes", "unicode", "unicode/utf8", "slices", "maps", "cmp",
		},
	}
}
