package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobilebench/internal/lint"
)

// seededTree is a module with one violation of every pass, plus a
// cross-package fact case: b calls a's blocking helper while holding a
// mutex, which mutexhold can only see through a's exported facts. It has
// no config file, so the built-in policy alone must flag cosim's clock.
var seededTree = map[string]string{
	"go.mod": "module seeded\n\ngo 1.24\n",
	"cosim/cosim.go": `// Package cosim sits under a deterministic-package segment.
package cosim

import "time"

// Stamp reads the wall clock.
func Stamp() int64 { return time.Now().Unix() }
`,
	"core/core.go": `// Package core sits under a deterministic-package segment.
package core

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"
)

func work() {}

func spin() {
	for {
		work()
	}
}

// Stamp reads the wall clock.
func Stamp() int64 { return time.Now().Unix() }

// Sum accumulates floats in map order.
func Sum(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v
	}
	return total
}

// Wrap flattens its cause.
func Wrap(err error) error { return fmt.Errorf("loading: %v", err) }

// Save writes the destination in place.
func Save(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }

// Loop does work every iteration without consulting ctx.
func Loop(ctx context.Context, n int) {
	for i := 0; i < n; i++ {
		work()
	}
}

// Leak launches a goroutine it can never stop.
func Leak(ctx context.Context) {
	go spin()
	<-ctx.Done()
}

// Store sleeps under its lock.
type Store struct{ mu sync.Mutex }

// Slow holds mu across a sleep.
func (s *Store) Slow() {
	s.mu.Lock()
	time.Sleep(time.Millisecond)
	s.mu.Unlock()
}
`,
	"server/spec.go": `// Package server carries the server.Spec fingerprint rule.
package server

import "fmt"

// Spec is a job spec whose Shiny field its cache key forgets.
type Spec struct {
	Kind  string
	Shiny string
}

// CacheKey renders the spec's identity.
func (sp Spec) CacheKey() string { return fmt.Sprintf("kind=%s", sp.Kind) }
`,
	"dist/frame.go": `// Package dist is a wire-protocol package.
package dist

import "encoding/json"

// Frame is a wire frame.
type Frame struct {
	Type string ` + "`json:\"type\"`" + `
}

// ParseFrame panics on hostile input.
func ParseFrame(line []byte) Frame {
	var f Frame
	if err := json.Unmarshal(line, &f); err != nil {
		panic(err)
	}
	return f
}
`,
	"a/a.go": `// Package a exports a blocking helper.
package a

import "time"

// Blocky parks the goroutine.
func Blocky() { time.Sleep(time.Millisecond) }
`,
	"b/b.go": `// Package b blocks through package a while holding a mutex.
package b

import (
	"sync"

	"seeded/a"
)

// T wraps a mutex.
type T struct{ mu sync.Mutex }

// Direct calls a blocking helper from another package while locked.
func (t *T) Direct() {
	t.mu.Lock()
	a.Blocky()
	t.mu.Unlock()
}
`,
}

// writeTree materializes files under a fresh directory and makes it the
// working directory, as mblint finds its module from there.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
	return dir
}

// runCaptured calls run with stderr redirected, returning the exit code
// and everything run wrote there.
func runCaptured(t *testing.T, args ...string) (int, string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	code := run(args)
	os.Stderr = saved
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

func TestSeededTreeFindsEveryPass(t *testing.T) {
	dir := writeTree(t, seededTree)
	sarif := filepath.Join(dir, "out.sarif")
	code, out := runCaptured(t, "-sarif", sarif, "./...")
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr:\n%s", code, out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for _, a := range lint.All() {
		if !strings.Contains(out, "["+a.Name+"]") {
			t.Errorf("no %s finding in:\n%s", a.Name, out)
		}
	}
	if !strings.Contains(out, "b.go:16:2: [mutexhold] call to a.Blocky may block (time.Sleep) while t.mu is held") {
		t.Errorf("cross-package mutexhold finding missing:\n%s", out)
	}
	if !strings.Contains(out, "cosim.go:7:29: [nondeterm] time.Now reads the wall clock") {
		t.Errorf("wall clock in cosim not flagged:\n%s", out)
	}

	data, err := os.ReadFile(sarif)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Runs []struct {
			Results []json.RawMessage `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("SARIF is not valid JSON: %v", err)
	}
	if len(log.Runs) != 1 || len(log.Runs[0].Results) != len(lines) {
		t.Fatalf("SARIF carries %v results, want one run with %d (the text findings)", log.Runs, len(lines))
	}
}

func TestCleanTreeExitsZero(t *testing.T) {
	writeTree(t, map[string]string{
		"go.mod": "module clean\n\ngo 1.24\n",
		"p/p.go": "// Package p is clean.\npackage p\n\n// Add adds.\nfunc Add(a, b int) int { return a + b }\n",
	})
	if code, out := runCaptured(t, "./..."); code != 0 || out != "" {
		t.Fatalf("exit %d, stderr %q; want 0 and no output", code, out)
	}
}

func TestUsageErrorExitsOne(t *testing.T) {
	// -config is gone with the overlay it loaded: the built-in policy is
	// the only one, so naming a config file is a usage error.
	for _, flag := range []string{"-no-such-flag", "-config"} {
		if code, _ := runCaptured(t, flag, "x"); code != 1 {
			t.Errorf("%s: exit %d, want 1", flag, code)
		}
	}
}
