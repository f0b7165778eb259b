// Package linttest is mblint's analysistest equivalent: it loads fixture
// packages from internal/lint/testdata/src, runs one analyzer over them,
// and checks reported diagnostics against `// want "regexp"` comments on
// the offending lines. Lines without a want comment must stay clean, so
// every fixture file doubles as a negative test for everything it does not
// flag.
package linttest

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mobilebench/internal/lint"
)

// wantRE extracts the quoted regexps of a want comment; both
// double-quoted and backquoted forms are accepted, as in analysistest.
var wantRE = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// Run loads each fixture package (a path under testdata/src), runs the
// analyzer with the config (nil means lint.DefaultConfig), and reports
// every mismatch between findings and want comments as a test error.
func Run(t *testing.T, a *lint.Analyzer, cfg *lint.Config, fixtures ...string) {
	t.Helper()
	fset, pkgs, findings := analyze(t, a, cfg, fixtures)

	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, pkg := range pkgs {
		for _, want := range collectWants(t, fset, pkg) {
			k := key{want.file, want.line}
			wants[k] = append(wants[k], want.re)
		}
	}
	for _, f := range findings {
		k := key{f.Pos.Filename, f.Pos.Line}
		matched := -1
		for i, re := range wants[k] {
			if re.MatchString(f.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("%s: unexpected finding: %s", a.Name, f)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s: %s:%d: expected finding matching %q, got none", a.Name, k.file, k.line, re)
		}
	}
}

// Findings loads the fixture packages like Run but returns the raw
// findings instead of matching want comments, for tests that run a
// non-default config, where the fixtures' want comments describe the
// default policy.
func Findings(t *testing.T, a *lint.Analyzer, cfg *lint.Config, fixtures ...string) []lint.Finding {
	t.Helper()
	_, _, findings := analyze(t, a, cfg, fixtures)
	return findings
}

// analyze loads the fixtures (import paths mapped into testdata/src) and
// runs the analyzer over them with cfg, nil meaning lint.DefaultConfig.
func analyze(t *testing.T, a *lint.Analyzer, cfg *lint.Config, fixtures []string) (*token.FileSet, []*lint.Package, []lint.Finding) {
	t.Helper()
	if cfg == nil {
		cfg = lint.DefaultConfig()
	}
	moduleDir, err := lint.FindModuleRoot()
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	testdata, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	loader, err := lint.NewLoader(moduleDir)
	if err != nil {
		t.Fatalf("linttest: %v", err)
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
			t.Fatalf("linttest: loading fixture %s: %v", fx, err)
		}
		pkgs = append(pkgs, pkg)
	}
	findings, err := lint.RunAnalyzers(pkgs, []*lint.Analyzer{a}, cfg, loader.Fset)
	if err != nil {
		t.Fatalf("linttest: running %s: %v", a.Name, err)
	}
	return loader.Fset, pkgs, findings
}

// lineWant is one expected-diagnostic marker.
type lineWant struct {
	file string
	line int
	re   *regexp.Regexp
}

// collectWants parses `// want` comments from a fixture package.
func collectWants(t *testing.T, fset *token.FileSet, pkg *lint.Package) []lineWant {
	t.Helper()
	var wants []lineWant
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				ms := wantRE.FindAllStringSubmatch(rest, -1)
				if len(ms) == 0 {
					t.Fatalf("linttest: %s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				}
				for _, m := range ms {
					pat := m[1]
					if m[2] != "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("linttest: %s:%d: bad want regexp: %v", pos.Filename, pos.Line, err)
					}
					wants = append(wants, lineWant{pos.Filename, pos.Line, re})
				}
			}
		}
	}
	return wants
}
