// Cross-package function facts: per-function summaries ("may block",
// "acquires a mutex", "may panic", "reads these fingerprint fields")
// computed once per package by a lightweight intra-procedural walk and
// shared between passes and packages. The design mirrors x/tools
// analysis facts in spirit — a pass analyzing package B sees summaries
// exported while analyzing package A — but is deliberately simpler:
// facts attach to declared functions only (not types or literals), and
// the call-graph walk is a per-package fixpoint over direct calls, so a
// helper's blocking behaviour propagates to everything that reaches it
// without any whole-program analysis.
//
// Every target package of one mblint run shares one FactStore keyed by
// *types.Func identity: the loader memoizes packages on a shared
// FileSet, so identities line up across packages.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// FuncFacts is the exported summary of one declared function.
type FuncFacts struct {
	// MayBlock: the function can park its goroutine — it sleeps, touches
	// the network or a pipe, waits on a process or a channel, or calls
	// something that does. BlockNote names the first reason found.
	MayBlock  bool
	BlockNote string
	// AcquiresMutex: the function locks a sync.Mutex/RWMutex itself.
	AcquiresMutex bool
	// MayPanic: a panic call is reachable from the function through
	// module-local calls. PanicNote names the path's first hop.
	MayPanic  bool
	PanicNote string
	// FieldRefs records, per fingerprint rule ("server.Spec"), which of
	// the rule struct's fields the function (or anything it calls) reads.
	// This is how fpcomplete knows a pre-image builder covers a field.
	FieldRefs map[string][]string
}

// FactStore accumulates facts across packages for one analysis run.
type FactStore struct {
	funcs map[*types.Func]*FuncFacts
	done  map[string]bool
}

// newFactStore returns an empty store.
func newFactStore() *FactStore {
	return &FactStore{
		funcs: make(map[*types.Func]*FuncFacts),
		done:  make(map[string]bool),
	}
}

// funcKey names a function within its package: "Func" for package-level
// functions, "Type.Method" for methods (pointer receivers included).
func funcKey(fn *types.Func) string {
	sig := fn.Signature()
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj().Name() + "." + fn.Name()
		}
		return "?." + fn.Name()
	}
	return fn.Name()
}

// funcDesc renders a function for diagnostics: "cosim.Supervisor.Exchange".
func funcDesc(fn *types.Func) string {
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + funcKey(fn)
	}
	return funcKey(fn)
}

// FactsFor returns the facts recorded for fn. Nil means "nothing known".
func (st *FactStore) FactsFor(fn *types.Func) *FuncFacts {
	if st == nil {
		return nil
	}
	return st.funcs[fn]
}

// --- event extraction: the intra-procedural walk ---

type eventKind int

const (
	evLock eventKind = iota
	evRLock
	evUnlock
	evRUnlock
	evDeferUnlock
	evBlock
	evPanic
	evCall
)

// event is one lock transition, blocking operation, panic or call inside
// a function body, in source-position order.
type event struct {
	pos   token.Pos
	kind  eventKind
	mutex string      // lock events: rendered mutex expression ("s.mu")
	desc  string      // block events: human description; call events: callee
	fn    *types.Func // call events: the callee
}

// blockingPkgFuncs maps a package path to the function/method names in it
// that can park the calling goroutine. Matching is by defining package
// and name, so interface methods (net.Conn.Write, io.Reader.Read) and
// concrete ones ((*os.File).Write) both land. Deliberately absent:
// fmt.Fprintf and friends (their writer is dynamic; flagging every
// formatted write drowns the signal), sync.Mutex.Lock (lock acquisition
// order is its own analysis; mutexhold targets holding across waits).
var blockingPkgFuncs = map[string][]string{
	"time":     {"Sleep"},
	"sync":     {"Wait"}, // WaitGroup.Wait, Cond.Wait
	"os/exec":  {"Wait", "Run", "Output", "CombinedOutput"},
	"net":      {"Read", "Write", "Accept", "Dial", "DialTimeout", "DialContext", "Listen"},
	"io":       {"Read", "Write", "Copy", "CopyN", "ReadAll", "ReadFull", "ReadAtLeast", "WriteString"},
	"os":       {"Read", "Write", "ReadString", "Sync", "ReadFile", "WriteFile", "ReadDir", "Open", "OpenFile", "Create", "Rename", "Remove", "RemoveAll"},
	"bufio":    {"Read", "Write", "ReadSlice", "ReadBytes", "ReadString", "ReadRune", "ReadByte", "Peek", "Flush", "Scan"},
	"net/http": {"Do", "Get", "Post", "Head", "PostForm", "Serve", "ListenAndServe", "Shutdown"},
}

// blockingFunc reports whether fn is a known goroutine-parking call.
func blockingFunc(fn *types.Func) (string, bool) {
	if fn.Pkg() == nil {
		return "", false
	}
	for _, name := range blockingPkgFuncs[fn.Pkg().Path()] {
		if fn.Name() == name {
			return fn.Pkg().Name() + "." + fn.Name(), true
		}
	}
	return "", false
}

// mutexCall classifies a call as a sync.Mutex/RWMutex/Locker lock
// transition, returning the rendered mutex expression.
func mutexCall(info *types.Info, call *ast.CallExpr) (string, eventKind, bool) {
	fn, ok := calleeOf(info, call).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", 0, false
	}
	var kind eventKind
	switch fn.Name() {
	case "Lock":
		kind = evLock
	case "RLock":
		kind = evRLock
	case "Unlock":
		kind = evUnlock
	case "RUnlock":
		kind = evRUnlock
	default:
		return "", 0, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", 0, false
	}
	return exprText(sel.X), kind, true
}

// exprText renders an expression just well enough to give two textual
// occurrences of the same mutex the same name within one function.
func exprText(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprText(x.X) + "." + x.Sel.Name
	case *ast.StarExpr:
		return exprText(x.X)
	case *ast.IndexExpr:
		return exprText(x.X) + "[...]"
	case *ast.CallExpr:
		return exprText(x.Fun) + "()"
	}
	return "?"
}

// extractEvents walks one function body (nested function literals
// excluded: they are separate analysis units) and returns its events in
// source order.
func extractEvents(info *types.Info, body ast.Node) []event {
	var s eventScan
	s.info = info
	s.walk(body)
	sort.SliceStable(s.events, func(i, j int) bool { return s.events[i].pos < s.events[j].pos })
	return s.events
}

type eventScan struct {
	info   *types.Info
	events []event
}

func (s *eventScan) walk(root ast.Node) {
	if root == nil {
		return
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if mx, kind, ok := mutexCall(s.info, x.Call); ok && (kind == evUnlock || kind == evRUnlock) {
				s.events = append(s.events, event{pos: x.Pos(), kind: evDeferUnlock, mutex: mx})
				return false
			}
			return true
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				s.events = append(s.events, event{pos: x.Pos(), kind: evBlock, desc: "select without default"})
			}
			// Clause communication ops are part of the select, not
			// independent blocking points; walk only the clause bodies.
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					for _, st := range cc.Body {
						s.walk(st)
					}
				}
			}
			return false
		case *ast.SendStmt:
			s.events = append(s.events, event{pos: x.Pos(), kind: evBlock, desc: "channel send"})
			return true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				s.events = append(s.events, event{pos: x.Pos(), kind: evBlock, desc: "channel receive"})
			}
			return true
		case *ast.RangeStmt:
			if t := s.info.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					s.events = append(s.events, event{pos: x.Pos(), kind: evBlock, desc: "range over channel"})
				}
			}
			return true
		case *ast.CallExpr:
			s.call(x)
			return true
		}
		return true
	})
}

func (s *eventScan) call(call *ast.CallExpr) {
	if mx, kind, ok := mutexCall(s.info, call); ok {
		s.events = append(s.events, event{pos: call.Pos(), kind: kind, mutex: mx})
		return
	}
	switch callee := calleeOf(s.info, call).(type) {
	case *types.Builtin:
		if callee.Name() == "panic" {
			s.events = append(s.events, event{pos: call.Pos(), kind: evPanic, desc: "panic call"})
		}
	case *types.Func:
		if desc, ok := blockingFunc(callee); ok {
			s.events = append(s.events, event{pos: call.Pos(), kind: evBlock, desc: desc})
			return
		}
		s.events = append(s.events, event{pos: call.Pos(), kind: evCall, fn: callee, desc: funcDesc(callee)})
	}
}

// --- the per-package summarizer ---

// fnSummary is one declared function's extracted view during summarize.
type fnSummary struct {
	fn     *types.Func
	events []event
	direct map[string]map[string]bool // rule → fields read directly
}

// summarize computes facts for every declared function of pass's package
// (idempotent per package path). Passes that consult facts call this
// first; the driver toposorts packages, so dependencies summarize before
// their importers.
func (st *FactStore) summarize(pass *Pass) {
	if st == nil || pass.Pkg == nil {
		return
	}
	path := pass.Pkg.Path()
	if st.done[path] {
		return
	}
	st.done[path] = true

	rules := pass.Config.Fingerprint
	var decls []fnSummary
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls = append(decls, fnSummary{
				fn:     obj,
				events: extractEvents(pass.TypesInfo, fd.Body),
				direct: directFieldRefs(pass.TypesInfo, fd.Body, rules),
			})
			st.funcs[obj] = &FuncFacts{}
		}
	}

	// Fixpoint over direct calls: facts are monotone (bools only flip to
	// true, field sets only grow), so this terminates.
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if st.simulate(st.funcs[d.fn], d) {
				changed = true
			}
		}
	}
}

// simulate folds one function's events into its facts, reporting whether
// anything changed. The unpaired-unlock set recognizes the "release the
// caller's lock around the wait" shape (PR 8's restartUnlocking): a
// blocking operation performed while a caller-held mutex is explicitly
// released does not make the function itself blocking for lock-holding
// callers, because by construction they are not holding it at that point.
func (st *FactStore) simulate(ff *FuncFacts, d fnSummary) bool {
	beforeBlock, beforeMutex, beforePanic := ff.MayBlock, ff.AcquiresMutex, ff.MayPanic
	beforeRefs := fieldRefCount(ff.FieldRefs)

	refs := make(map[string]map[string]bool)
	for rule, fields := range d.direct {
		for f := range fields {
			addRef(refs, rule, f)
		}
	}
	for rule, fields := range ff.FieldRefs {
		for _, f := range fields {
			addRef(refs, rule, f)
		}
	}

	held := make(map[string]bool)
	unpaired := make(map[string]bool)
	for _, ev := range d.events {
		switch ev.kind {
		case evLock, evRLock:
			delete(unpaired, ev.mutex)
			held[ev.mutex] = true
			ff.AcquiresMutex = true
		case evUnlock, evRUnlock:
			if held[ev.mutex] {
				delete(held, ev.mutex)
			} else {
				unpaired[ev.mutex] = true
			}
		case evDeferUnlock:
			// Held to function end; nothing to update.
		case evBlock:
			if len(unpaired) == 0 && !ff.MayBlock {
				ff.MayBlock = true
				ff.BlockNote = ev.desc
			}
		case evPanic:
			if !ff.MayPanic {
				ff.MayPanic = true
				ff.PanicNote = ev.desc
			}
		case evCall:
			cf := st.FactsFor(ev.fn)
			if cf == nil {
				continue
			}
			if cf.MayBlock && len(unpaired) == 0 && !ff.MayBlock {
				ff.MayBlock = true
				ff.BlockNote = "calls " + ev.desc + " (" + cf.BlockNote + ")"
			}
			if cf.MayPanic && !ff.MayPanic {
				ff.MayPanic = true
				ff.PanicNote = "calls " + ev.desc + " (" + cf.PanicNote + ")"
			}
			for rule, fields := range cf.FieldRefs {
				for _, f := range fields {
					addRef(refs, rule, f)
				}
			}
		}
	}

	ff.FieldRefs = flattenRefs(refs)
	return ff.MayBlock != beforeBlock || ff.AcquiresMutex != beforeMutex ||
		ff.MayPanic != beforePanic || fieldRefCount(ff.FieldRefs) != beforeRefs
}

func addRef(refs map[string]map[string]bool, rule, field string) {
	if refs[rule] == nil {
		refs[rule] = make(map[string]bool)
	}
	refs[rule][field] = true
}

func flattenRefs(refs map[string]map[string]bool) map[string][]string {
	if len(refs) == 0 {
		return nil
	}
	out := make(map[string][]string, len(refs))
	for rule, fields := range refs {
		fs := make([]string, 0, len(fields))
		for f := range fields {
			fs = append(fs, f)
		}
		sort.Strings(fs)
		out[rule] = fs
	}
	return out
}

func fieldRefCount(refs map[string][]string) int {
	n := 0
	for _, fs := range refs {
		n += len(fs)
	}
	return n
}

// directFieldRefs finds selector reads of rule-struct fields anywhere in
// body, nested literals included (a builder may close over its struct).
func directFieldRefs(info *types.Info, body ast.Node, rules []FingerprintRule) map[string]map[string]bool {
	if len(rules) == 0 {
		return nil
	}
	refs := make(map[string]map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return true
		}
		t := s.Recv()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
			return true
		}
		for _, rule := range rules {
			if rule.matchesType(named.Obj()) {
				addRef(refs, rule.Struct, sel.Sel.Name)
			}
		}
		return true
	})
	if len(refs) == 0 {
		return nil
	}
	return refs
}
