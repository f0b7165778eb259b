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
// Exit status is 0 when no error-severity findings remain, 2 when some
// were reported and 1 on usage or load errors. Findings are suppressed
// per line with `//mblint:ignore <pass> <reason>` and per package via
// the -config JSON (see internal/lint.Config).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"mobilebench/internal/checkpoint"
	"mobilebench/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("mblint", flag.ContinueOnError)
	configPath := fs.String("config", "", "JSON lint config overlaying the built-in policy (default: .mblint.json at the module root, if present)")
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
	moduleDir, err := findModuleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mblint: %v\n", err)
		return 1
	}
	cfg, err := loadConfig(*configPath, moduleDir)
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
	findings, err := lint.RunAnalyzers(pkgs, lint.All(), cfg, loader.Fset)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mblint: %v\n", err)
		return 1
	}

	lint.Print(os.Stderr, findings)
	if *sarifPath != "" {
		data, err := lint.EncodeSARIF(findings, cfg, moduleDir)
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
	for _, f := range findings {
		if cfg.SeverityOf(f.Pass) == "error" {
			return 2
		}
	}
	return 0
}

// loadConfig resolves the lint config: an explicit -config path, else the
// module's .mblint.json if present, else the built-in defaults.
func loadConfig(explicit, moduleDir string) (*lint.Config, error) {
	path := explicit
	if path == "" {
		candidate := filepath.Join(moduleDir, ".mblint.json")
		if _, err := os.Stat(candidate); err != nil {
			return lint.DefaultConfig(), nil
		}
		path = candidate
	}
	return lint.LoadConfig(path)
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory; run mblint inside the module")
		}
		dir = parent
	}
}
