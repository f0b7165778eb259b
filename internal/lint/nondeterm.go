package lint

import (
	"go/ast"
	"go/types"
)

// NonDeterm forbids nondeterminism sources inside the deterministic
// packages (Config.DeterministicPkgs: core, sim, cluster, stats, subset,
// fault, checkpoint, cosim, profiler, trace and xrand — the pipeline whose
// outputs must be bit-identical across runs, worker counts and
// crash-resumes): wall-clock reads, the globally-seeded math/rand, and
// fmt.Sprint over maps. Deterministic code draws randomness from
// mobilebench/internal/xrand seeded splits and takes timestamps as inputs.
var NonDeterm = &Analyzer{
	Name: "nondeterm",
	Doc: "forbid time.Now/Since/Until, global math/rand and map-keyed fmt.Sprint in the " +
		"deterministic packages; use internal/xrand and injected clocks so datasets stay bit-identical.",
	Run: runNonDeterm,
}

func runNonDeterm(pass *Pass) error {
	if !pathHasSegment(pass.Pkg.Path(), pass.Config.DeterministicPkgs) {
		return nil
	}
	info := pass.TypesInfo
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.SelectorExpr:
				// Any reference into math/rand (v1 or v2), not just calls:
				// taking rand.Int as a value smuggles the global source too.
				if pkg := pkgNameOf(info, e.X); pkg != nil {
					switch pkg.Imported().Path() {
					case "math/rand", "math/rand/v2":
						pass.Reportf(e.Pos(),
							"global math/rand (%s.%s) is seeded per-process and breaks bit-identical reruns; use mobilebench/internal/xrand with a seeded Split chain",
							pkg.Imported().Name(), e.Sel.Name)
						return false
					}
				}
			case *ast.CallExpr:
				if name, ok := isPkgCall(info, e, "time", "Now", "Since", "Until"); ok {
					pass.Reportf(e.Pos(),
						"time.%s reads the wall clock inside a deterministic package; inject the timestamp (or a clock) from the caller instead",
						name)
					return true
				}
				if name, ok := isPkgCall(info, e, "fmt", "Sprint", "Sprintf", "Sprintln"); ok {
					for _, arg := range e.Args {
						if isMap(info.TypeOf(arg)) {
							pass.Reportf(e.Pos(),
								"fmt.%s formats a map; key order is a formatting detail, not a contract — iterate sorted keys explicitly",
								name)
							break
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// pkgNameOf resolves an expression to the package it names, or nil.
func pkgNameOf(info *types.Info, e ast.Expr) *types.PkgName {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := info.ObjectOf(id).(*types.PkgName)
	return pn
}
