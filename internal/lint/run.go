package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"
	"strings"

	"mobilebench/internal/checkpoint"
)

// Finding is one resolved diagnostic: a Diagnostic plus its pass name and
// file positions, ready for printing, want-matching and fix application.
type Finding struct {
	// Pass is the reporting analyzer's name.
	Pass string
	// Pos (and End, when set) locate the finding.
	Pos, End token.Position
	// Message is the diagnostic text.
	Message string
	// Fixes are the mechanical rewrites, with token positions resolved.
	Fixes []ResolvedFix
}

// ResolvedFix is a SuggestedFix with file offsets resolved.
type ResolvedFix struct {
	Message string
	Edits   []ResolvedEdit
}

// ResolvedEdit replaces bytes [Start.Offset, End.Offset) of Start.Filename.
type ResolvedEdit struct {
	Start, End token.Position
	NewText    []byte
}

// String renders the finding in the classic file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Pass, f.Message)
}

// RunAnalyzers runs every analyzer over every package, honoring
// `//mblint:ignore pass reason` suppression comments (on the finding's
// line or the line above). All
// packages share one fact store and run in dependency order, so facts a
// pass exports while analyzing package A exist when package B (importing
// A) is analyzed. Findings come back sorted by file, line, column and
// pass, so output is deterministic regardless of analyzer-internal
// iteration order.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer, cfg *Config, fset *token.FileSet) ([]Finding, error) {
	store := newFactStore()
	var findings []Finding
	for _, pkg := range topoSort(pkgs) {
		ignores := ignoreIndex(fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Config:    cfg,
				Facts:     store,
			}
			pass.Report = func(d Diagnostic) {
				pos := fset.Position(d.Pos)
				if ignores.suppressed(pos.Filename, pos.Line, a.Name) {
					return
				}
				f := Finding{Pass: a.Name, Pos: pos, Message: d.Message}
				if d.End.IsValid() {
					f.End = fset.Position(d.End)
				}
				for _, fix := range d.SuggestedFixes {
					rf := ResolvedFix{Message: fix.Message}
					for _, e := range fix.TextEdits {
						rf.Edits = append(rf.Edits, ResolvedEdit{
							Start:   fset.Position(e.Pos),
							End:     fset.Position(e.End),
							NewText: e.NewText,
						})
					}
					f.Fixes = append(f.Fixes, rf)
				}
				findings = append(findings, f)
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: pass %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Pass < b.Pass
	})
	return findings, nil
}

// topoSort orders packages so imports precede importers (ties broken by
// the incoming order, which the loader keeps deterministic). Only
// packages in the input set participate; facts about functions outside
// it are unknown and read as nil.
func topoSort(pkgs []*Package) []*Package {
	byTypes := make(map[*types.Package]*Package, len(pkgs))
	for _, p := range pkgs {
		if p.Types != nil {
			byTypes[p.Types] = p
		}
	}
	out := make([]*Package, 0, len(pkgs))
	seen := make(map[*Package]bool, len(pkgs))
	var visit func(p *Package)
	visit = func(p *Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if p.Types != nil {
			for _, imp := range p.Types.Imports() {
				if dep, ok := byTypes[imp]; ok {
					visit(dep)
				}
			}
		}
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}

// ignoreSet records, per file and line, which passes are suppressed.
type ignoreSet map[string]map[int][]string

// ignoreIndex scans file comments for `//mblint:ignore <pass>[,<pass>]
// <reason>` markers. A marker suppresses the named passes (or every pass,
// for "all") on its own line and the line directly below, covering both
// trailing and preceding comment placement.
func ignoreIndex(fset *token.FileSet, files []*ast.File) ignoreSet {
	idx := make(ignoreSet)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "mblint:ignore")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				passes := strings.Split(fields[0], ",")
				pos := fset.Position(c.Pos())
				if idx[pos.Filename] == nil {
					idx[pos.Filename] = make(map[int][]string)
				}
				idx[pos.Filename][pos.Line] = append(idx[pos.Filename][pos.Line], passes...)
			}
		}
	}
	return idx
}

// suppressed reports whether pass findings at (file, line) are ignored.
func (s ignoreSet) suppressed(file string, line int, pass string) bool {
	lines := s[file]
	if lines == nil {
		return false
	}
	for _, l := range []int{line, line - 1} {
		for _, p := range lines[l] {
			if p == pass || p == "all" {
				return true
			}
		}
	}
	return false
}

// ApplyFixes applies every suggested edit to the working tree in two
// phases: plan every file's patched contents in memory first, then
// write them all (atomically, via the checkpoint helpers — the linter
// practices what it preaches). Validation failures in phase one —
// overlapping edits, out-of-range offsets, unreadable sources — abort
// before ANY file is written, so a conflict between two findings in
// different files of one package can never leave the tree half-patched
// (the pre-two-phase driver wrote file A before discovering file B's
// conflict). Identical edits from independent findings (two passes
// suggesting the same rewrite, or the same line touched in different
// files of one package) deduplicate instead of colliding.
func ApplyFixes(findings []Finding) (int, error) {
	type edit struct {
		start, end int
		text       string
	}
	perFile := make(map[string][]edit)
	for _, f := range findings {
		for _, fix := range f.Fixes {
			for _, e := range fix.Edits {
				perFile[e.Start.Filename] = append(perFile[e.Start.Filename], edit{
					start: e.Start.Offset, end: e.End.Offset, text: string(e.NewText),
				})
			}
		}
	}
	files := make([]string, 0, len(perFile))
	for name := range perFile {
		files = append(files, name)
	}
	sort.Strings(files)

	// Phase one: validate and patch everything in memory.
	applied := 0
	patched := make(map[string][]byte, len(files))
	for _, name := range files {
		edits := perFile[name]
		sort.Slice(edits, func(i, j int) bool {
			a, b := edits[i], edits[j]
			if a.start != b.start {
				return a.start < b.start
			}
			if a.end != b.end {
				return a.end < b.end
			}
			return a.text < b.text
		})
		deduped := edits[:0]
		for i, e := range edits {
			if i > 0 && e == edits[i-1] {
				continue
			}
			deduped = append(deduped, e)
		}
		edits = deduped
		for i := 1; i < len(edits); i++ {
			if edits[i].start < edits[i-1].end {
				return 0, fmt.Errorf("lint: overlapping fixes in %s at offset %d; nothing was written", name, edits[i].start)
			}
		}
		src, err := os.ReadFile(name)
		if err != nil {
			return 0, err
		}
		var b strings.Builder
		last := 0
		for _, e := range edits {
			if e.start < last || e.end > len(src) {
				return 0, fmt.Errorf("lint: fix out of range in %s; nothing was written", name)
			}
			b.Write(src[last:e.start])
			b.WriteString(e.text)
			last = e.end
		}
		b.Write(src[last:])
		patched[name] = []byte(b.String())
		applied += len(edits)
	}

	// Phase two: every file validated; write them all.
	for _, name := range files {
		if err := checkpoint.WriteFile(name, patched[name], 0o644); err != nil {
			return 0, err
		}
	}
	return applied, nil
}

// Print writes findings one per line.
func Print(w io.Writer, findings []Finding) {
	for _, f := range findings {
		fmt.Fprintln(w, f.String())
	}
}
