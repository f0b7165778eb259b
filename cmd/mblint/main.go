// Command mblint is mobilebench's invariant multichecker: nine static
// analysis passes (atomicwrite, ctxloop, errwrap, fpcomplete, goroleak,
// mapiterorder, mutexhold, nondeterm, wireframe) that machine-enforce
// the pipeline's determinism, atomic-I/O, cancellation, cache-key and
// concurrency guarantees. Passes share cross-package function facts
// (may-block, acquires-mutex, may-panic, fingerprint field reads), so a
// blocking helper in one package is visible to callers in another.
//
//	go run ./cmd/mblint ./...              # lint the whole module
//	go run ./cmd/mblint -fix ./...         # also apply mechanical fixes
//	go run ./cmd/mblint -sarif out.sarif ./...  # SARIF 2.1.0 for code scanning
//	go run ./cmd/mblint -list              # describe the passes
//
// The policy is lint.DefaultConfig; there is no config file. Exit status
// is 0 when there are no findings, 2 when any were reported and 1 on
// usage or load errors. A finding is accepted only in place, with a
// reasoned `//mblint:ignore <pass> <reason>` on its line or the line
// above.
package main

import (
	"flag"
	"fmt"
	"os"

	"mobilebench/internal/checkpoint"
	"mobilebench/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("mblint", flag.ContinueOnError)
	fix := fs.Bool("fix", false, "apply mechanical suggested fixes to the working tree")
	list := fs.Bool("list", false, "describe the passes and exit")
	sarifPath := fs.String("sarif", "", "also write findings as SARIF 2.1.0 to this file")
	if err := fs.Parse(args); err != nil {
		return 1
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	moduleDir, err := lint.FindModuleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mblint: %v\n", err)
		return 1
	}
	loader, err := lint.NewLoader(moduleDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mblint: %v\n", err)
		return 1
	}
	paths, err := lint.ExpandPatterns(moduleDir, loader.ModulePath, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mblint: %v\n", err)
		return 1
	}
	var pkgs []*lint.Package
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mblint: %v\n", err)
			return 1
		}
		pkgs = append(pkgs, pkg)
	}
	findings, err := lint.RunAnalyzers(pkgs, lint.All(), lint.DefaultConfig(), loader.Fset)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mblint: %v\n", err)
		return 1
	}

	lint.Print(os.Stderr, findings)
	if *sarifPath != "" {
		data, err := lint.EncodeSARIF(findings, moduleDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mblint: %v\n", err)
			return 1
		}
		if err := checkpoint.WriteFile(*sarifPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "mblint: writing SARIF: %v\n", err)
			return 1
		}
	}
	if *fix {
		n, err := lint.ApplyFixes(findings)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mblint: applying fixes: %v\n", err)
			return 1
		}
		if n > 0 {
			fmt.Fprintf(os.Stderr, "mblint: applied %d fix(es); re-run to verify\n", n)
		}
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}
