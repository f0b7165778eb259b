// Package lint is mobilebench's in-tree static analyzer: a small,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic, suggested fixes, cross-package
// facts) plus nine passes that machine-enforce the repository's
// reproducibility and concurrency invariants — deterministic iteration,
// injected randomness and clocks, atomic output writes, cancellable loops,
// cause-preserving error wrapping, no blocking under mutexes, complete
// fingerprint pre-images, goroutine cancellation paths and wire-frame
// decoding conventions.
//
// The container this repository builds in has no module proxy access, so
// the framework is built directly on go/ast, go/parser, go/types and
// go/importer from the standard library. The public shape deliberately
// mirrors x/tools so the passes could be ported to a stock multichecker by
// swapping the import; cmd/mblint is the one driver.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named invariant check, mirroring analysis.Analyzer.
type Analyzer struct {
	// Name identifies the pass in diagnostics, config allowlists and
	// mblint:ignore comments (e.g. "mapiterorder").
	Name string
	// Doc is the one-paragraph description shown by `mblint -list`.
	Doc string
	// Run reports the pass's diagnostics for one package via pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package, mirroring
// analysis.Pass.
type Pass struct {
	// Analyzer is the pass being run.
	Analyzer *Analyzer
	// Fset maps token.Pos values in Files to file positions.
	Fset *token.FileSet
	// Files are the package's parsed sources (comments included).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's expression and object tables.
	TypesInfo *types.Info
	// Config holds the repository-level lint configuration (package
	// allowlists, deterministic-package segments).
	Config *Config
	// Facts is the run-wide cross-package fact store. The driver
	// toposorts packages so dependency facts exist before importers
	// consult them; passes needing facts call Facts.summarize first.
	Facts *FactStore
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, mirroring analysis.Diagnostic.
type Diagnostic struct {
	// Pos is where the finding anchors; End optionally bounds it.
	Pos, End token.Pos
	// Message states the violated invariant and the steer.
	Message string
	// SuggestedFixes holds mechanical rewrites (applied by mblint -fix).
	SuggestedFixes []SuggestedFix
}

// SuggestedFix is one mechanical rewrite for a diagnostic.
type SuggestedFix struct {
	// Message describes the rewrite.
	Message string
	// TextEdits are the byte-range replacements; they must not overlap.
	TextEdits []TextEdit
}

// TextEdit replaces the source range [Pos, End) with NewText.
type TextEdit struct {
	Pos, End token.Pos
	NewText  []byte
}

// --- shared type and AST helpers used by the passes ---

// errorType is the universe error interface, for types.Implements checks.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t satisfies the error interface.
func implementsError(t types.Type) bool {
	return t != nil && types.Implements(t, errorType)
}

// isFloat reports whether t's core type is a floating-point type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isMap reports whether t's core type is a map.
func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// calleeOf resolves the object a call expression invokes: a *types.Func
// for ordinary and method calls, a *types.Builtin for builtins, nil for
// dynamic calls through function values and for type conversions.
func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.ObjectOf(fun)
	case *ast.SelectorExpr:
		return info.ObjectOf(fun.Sel)
	}
	return nil
}

// isPkgCall reports whether call invokes the package-level function
// pkgPath.name (one of names).
func isPkgCall(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) (string, bool) {
	fn, ok := calleeOf(info, call).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return "", false
	}
	if fn.Signature() != nil && fn.Signature().Recv() != nil {
		return "", false
	}
	for _, n := range names {
		if fn.Name() == n {
			return n, true
		}
	}
	return "", false
}

// isConversion reports whether call is a type conversion, not a call.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// pathHasSegment reports whether any "/"-separated segment of importPath
// equals one of segs. It is how passes scope themselves to package
// families ("core", "checkpoint") without hard-coding the module path, so
// the same rule applies to testdata fixtures and the real tree.
func pathHasSegment(importPath string, segs []string) bool {
	for _, part := range strings.Split(importPath, "/") {
		for _, s := range segs {
			if part == s {
				return true
			}
		}
	}
	return false
}

// isTestFile reports whether pos lies in a _test.go file. The loader
// normally excludes test files, but passes guard anyway so they stay
// correct under harnesses that load everything.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// baseIdent returns the innermost identifier of a selector chain
// (a.b.c → a), or nil.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether obj's declaration lies inside [lo, hi].
func declaredWithin(obj types.Object, lo, hi token.Pos) bool {
	return obj != nil && obj.Pos() != token.NoPos && obj.Pos() >= lo && obj.Pos() <= hi
}
