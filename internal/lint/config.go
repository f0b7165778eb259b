package lint

import (
	"encoding/json"
	"fmt"
	"go/types"
	"os"
	"path"
	"strings"
)

// Config tunes the passes per repository. The zero value is unusable; use
// DefaultConfig (the checked-in policy for this module) or LoadConfig,
// which overlays a JSON file on the defaults so a config file only needs
// to state deviations.
type Config struct {
	// ModulePath is the module whose packages count as "our code" (work
	// calls for ctxloop, boundary crossings for errwrap).
	ModulePath string `json:"module"`

	// DeterministicPkgs lists import-path segments naming the packages
	// whose outputs must be bit-identical across runs; nondeterm forbids
	// wall clocks and global randomness inside them.
	DeterministicPkgs []string `json:"deterministic_pkgs"`

	// AtomicAllowPkgs lists import-path segments allowed to call
	// os.Create/os.WriteFile directly — the packages that implement the
	// atomic-write primitives themselves.
	AtomicAllowPkgs []string `json:"atomic_allow_pkgs"`

	// SafeCallPkgs lists standard-library packages whose calls do not
	// count as "work" for ctxloop: pure in-memory helpers a tight loop may
	// call without a cancellation point.
	SafeCallPkgs []string `json:"safe_call_pkgs"`

	// Exclude maps a pass name to package patterns it must skip. A
	// pattern is an import path, an import-path glob (path.Match), or a
	// prefix ending in "/..." matching the whole subtree.
	Exclude map[string][]string `json:"exclude"`

	// Fingerprint lists the fpcomplete rules: structs whose
	// result-affecting fields must all be read by their fingerprint
	// pre-image builders (or sit on the execution-only allowlist).
	Fingerprint []FingerprintRule `json:"fingerprint,omitempty"`

	// WireframePkgs lists import-path segments naming the wire-protocol
	// packages wireframe checks (frame decoding conventions).
	WireframePkgs []string `json:"wireframe_pkgs,omitempty"`

	// Severity maps a pass name to "error" or "warning". Error findings
	// fail the build (exit 2); warnings print but do not. Unlisted
	// passes default to error.
	Severity map[string]string `json:"severity,omitempty"`
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
	Struct   string   `json:"struct"`
	Builders []string `json:"builders"`
	Allow    []string `json:"allow,omitempty"`
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

// fingerprintRules returns the configured rules (never nil-safe needed;
// an empty config means no fpcomplete coverage checks).
func (c *Config) fingerprintRules() []FingerprintRule {
	return c.Fingerprint
}

// SeverityOf returns "error" or "warning" for a pass (default error).
func (c *Config) SeverityOf(pass string) string {
	if s, ok := c.Severity[pass]; ok && s == "warning" {
		return "warning"
	}
	return "error"
}

// DefaultConfig returns this repository's checked-in lint policy.
func DefaultConfig() *Config {
	return &Config{
		ModulePath: "mobilebench",
		DeterministicPkgs: []string{
			"core", "sim", "cluster", "stats", "subset", "fault", "checkpoint",
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
		Exclude: map[string][]string{},
	}
}

// LoadConfig reads a JSON config file and overlays it on DefaultConfig:
// absent or empty fields keep their defaults, present fields replace them.
func LoadConfig(file string) (*Config, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var over Config
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&over); err != nil {
		return nil, fmt.Errorf("lint: parsing config %s: %w", file, err)
	}
	cfg := DefaultConfig()
	if over.ModulePath != "" {
		cfg.ModulePath = over.ModulePath
	}
	if len(over.DeterministicPkgs) > 0 {
		cfg.DeterministicPkgs = over.DeterministicPkgs
	}
	if len(over.AtomicAllowPkgs) > 0 {
		cfg.AtomicAllowPkgs = over.AtomicAllowPkgs
	}
	if len(over.SafeCallPkgs) > 0 {
		cfg.SafeCallPkgs = over.SafeCallPkgs
	}
	if len(over.Exclude) > 0 {
		cfg.Exclude = over.Exclude
	}
	if len(over.Fingerprint) > 0 {
		cfg.Fingerprint = over.Fingerprint
	}
	if len(over.WireframePkgs) > 0 {
		cfg.WireframePkgs = over.WireframePkgs
	}
	if len(over.Severity) > 0 {
		cfg.Severity = over.Severity
	}
	return cfg, nil
}

// Disabled reports whether pass is excluded for the package.
func (c *Config) Disabled(pass, importPath string) bool {
	for _, pat := range c.Exclude[pass] {
		if matchPkgPattern(pat, importPath) {
			return true
		}
	}
	return false
}

// matchPkgPattern matches an import path against an exact path, a
// path.Match glob, or a "prefix/..." subtree pattern ("..." alone matches
// everything).
func matchPkgPattern(pat, importPath string) bool {
	if pat == "..." {
		return true
	}
	if prefix, ok := strings.CutSuffix(pat, "/..."); ok {
		return importPath == prefix || strings.HasPrefix(importPath, prefix+"/")
	}
	if pat == importPath {
		return true
	}
	ok, err := path.Match(pat, importPath)
	return err == nil && ok
}

// moduleLocal reports whether importPath belongs to the configured module.
func (c *Config) moduleLocal(importPath string) bool {
	return importPath == c.ModulePath || strings.HasPrefix(importPath, c.ModulePath+"/")
}
