package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path the package was loaded as.
	Path string
	// Dir is the directory holding its sources.
	Dir string
	// Files are the parsed sources (test files excluded), sorted by name.
	Files []*ast.File
	// Types and TypesInfo are the type-checker outputs.
	Types     *types.Package
	TypesInfo *types.Info
}

// TypeError aggregates a package's type-check failures. Analysis demands a
// clean type-check: running heuristic passes over broken trees produces
// junk findings.
type TypeError struct {
	Path string
	Errs []error
}

// Error implements error, showing at most three underlying errors.
func (e *TypeError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lint: package %s does not type-check:", e.Path)
	for i, err := range e.Errs {
		if i == 3 {
			fmt.Fprintf(&b, "\n\t... and %d more", len(e.Errs)-i)
			break
		}
		fmt.Fprintf(&b, "\n\t%v", err)
	}
	return b.String()
}

// Loader parses and type-checks packages by import path. Module-local
// paths resolve to directories under the module root; everything else is
// delegated to the standard library's source importer, so the loader works
// without a module proxy, a GOPATH or compiled export data. Results are
// memoized, making repeated loads (analysis targets that import each
// other) cheap.
type Loader struct {
	// Fset is shared by every file the loader touches.
	Fset *token.FileSet
	// ModulePath and ModuleDir anchor module-local import resolution.
	ModulePath string
	ModuleDir  string
	// DirFor optionally overrides import resolution (the test harness
	// maps fixture paths into testdata/src). It is consulted before the
	// module mapping.
	DirFor func(importPath string) (dir string, ok bool)

	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader rooted at moduleDir, reading the module path
// from its go.mod.
func NewLoader(moduleDir string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModulePath: modPath,
		ModuleDir:  moduleDir,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: %s has no module directive", gomod)
}

// FindModuleRoot walks up from the working directory to the nearest
// directory holding a go.mod: the module the driver and the fixture
// harness load packages from.
func FindModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for start := dir; ; {
		if isFile(filepath.Join(dir, "go.mod")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod in or above %s", start)
		}
		dir = parent
	}
}

// resolve maps an import path to a source directory, or ok=false when the
// path is not loader-local (stdlib, or truly unknown).
func (l *Loader) resolve(importPath string) (string, bool) {
	if l.DirFor != nil {
		if dir, ok := l.DirFor(importPath); ok {
			return dir, true
		}
	}
	if importPath == l.ModulePath {
		return l.ModuleDir, true
	}
	if rest, ok := strings.CutPrefix(importPath, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleDir, filepath.FromSlash(rest)), true
	}
	return "", false
}

// Load parses and type-checks the package at importPath (memoized).
func (l *Loader) Load(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	dir, ok := l.resolve(importPath)
	if !ok {
		return nil, fmt.Errorf("lint: cannot resolve %s to a directory", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", importPath, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", filepath.Join(dir, name), err)
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var terrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	tpkg, _ := conf.Check(importPath, l.Fset, files, info)
	if len(terrs) > 0 {
		return nil, &TypeError{Path: importPath, Errs: terrs}
	}
	p := &Package{Path: importPath, Dir: dir, Files: files, Types: tpkg, TypesInfo: info}
	l.pkgs[importPath] = p
	return p, nil
}

// Import implements types.Importer, letting loaded packages import each
// other and fall through to the stdlib source importer.
func (l *Loader) Import(importPath string) (*types.Package, error) {
	if importPath == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.resolve(importPath); ok {
		p, err := l.Load(importPath)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(importPath)
}

// ExpandPatterns turns CLI package patterns into sorted import paths. It
// accepts "./..."-style subtree patterns, plain relative directories and
// full import paths, resolving directories against moduleDir and the
// module path so no `go list` subprocess is needed.
func ExpandPatterns(moduleDir, modPath string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	dirToImport := func(dir string) (string, error) {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return "", err
		}
		rel, err := filepath.Rel(moduleDir, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return "", fmt.Errorf("lint: %s is outside module %s", dir, moduleDir)
		}
		if rel == "." {
			return modPath, nil
		}
		return modPath + "/" + filepath.ToSlash(rel), nil
	}
	for _, pat := range patterns {
		base, subtree := pat, false
		if strings.HasSuffix(pat, "/...") || pat == "..." {
			subtree = true
			base = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if base == "" {
				base = "."
			}
		}
		if !strings.HasPrefix(base, ".") && !filepath.IsAbs(base) {
			// An import path: map module-local ones onto the tree.
			if rest, ok := strings.CutPrefix(base, modPath); ok {
				base = filepath.Join(moduleDir, filepath.FromSlash(strings.TrimPrefix(rest, "/")))
			} else {
				return nil, fmt.Errorf("lint: pattern %q is not module-local", pat)
			}
		}
		if !subtree {
			ip, err := dirToImport(base)
			if err != nil {
				return nil, err
			}
			add(ip)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor" || isFile(filepath.Join(path, "go.mod"))) {
				// A directory holding its own go.mod is a nested module,
				// outside this one's "./...", as with go list.
				return filepath.SkipDir
			}
			if !hasNonTestGoFiles(path) {
				return nil
			}
			ip, err := dirToImport(path)
			if err != nil {
				return err
			}
			add(ip)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

func isFile(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.Mode().IsRegular()
}

// hasNonTestGoFiles reports whether dir holds at least one buildable
// non-test Go file.
func hasNonTestGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if e.Type().IsRegular() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".") {
			return true
		}
	}
	return false
}
