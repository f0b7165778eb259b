package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"mobilebench/internal/lint"
)

// runOn loads fixture packages like linttest.Run but returns the raw
// findings instead of matching want comments — for tests asserting the
// absence of findings under non-default configs, where the fixture's
// want comments describe the default behaviour.
func runOn(t *testing.T, a *lint.Analyzer, cfg *lint.Config, fixtures ...string) []lint.Finding {
	t.Helper()
	if cfg == nil {
		cfg = lint.DefaultConfig()
	}
	moduleDir := moduleRoot(t)
	testdata, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	loader.DirFor = func(importPath string) (string, bool) {
		dir := filepath.Join(testdata, filepath.FromSlash(importPath))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, true
		}
		return "", false
	}
	var pkgs []*lint.Package
	for _, fx := range fixtures {
		pkg, err := loader.Load(fx)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", fx, err)
		}
		pkgs = append(pkgs, pkg)
	}
	findings, err := lint.RunAnalyzers(pkgs, []*lint.Analyzer{a}, cfg, loader.Fset)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	return findings
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}
