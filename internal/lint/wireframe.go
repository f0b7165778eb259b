package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WireFrame enforces the wire-protocol decoding conventions the fuzz
// targets pin, structurally, in the protocol packages (Config.
// WireframePkgs — internal/wire, plus internal/dist and internal/cosim,
// which still read bytes from outside the process):
//
//  1. Parse entry points never panic: an exported Parse* function from
//     which a panic call is reachable (through module-local calls,
//     via cross-package MayPanic facts) is flagged — decoders must
//     return errors, because a hostile peer's bytes reach them first.
//  2. Bounded decode before allocation: make() sized by a non-constant
//     expression that is not a len/cap of in-memory data needs a size
//     comparison on the same variable earlier in the function. A
//     length word read off the wire must be checked against a bound
//     before it sizes an allocation.
//  3. Append growth in read loops is bounded: a loop that grows a
//     slice with x = append(x, ...) needs a len(x) comparison
//     somewhere in the function, the wire.Stream.Next bound shape.
//  4. Unknown-field tolerance: json.Decoder.DisallowUnknownFields is
//     banned in wire packages — peers running one protocol version
//     apart must be able to exchange frames.
var WireFrame = &Analyzer{
	Name: "wireframe",
	Doc: "enforce wire-frame decoding conventions in protocol packages: Parse entry points " +
		"must not reach panic, wire-sized allocations and append-growth loops need size " +
		"guards, and decoders must tolerate unknown fields.",
	Run: runWireFrame,
}

func runWireFrame(pass *Pass) error {
	if !pathHasSegment(pass.Pkg.Path(), pass.Config.WireframePkgs) {
		return nil
	}
	if pass.Facts != nil {
		pass.Facts.summarize(pass)
	}
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkParseEntry(pass, fd)
			checkAllocGuards(pass, fd)
			checkAppendGrowth(pass, fd)
		}
		checkUnknownFields(pass, file)
	}
	return nil
}

// checkParseEntry flags exported Parse* functions that can reach panic.
func checkParseEntry(pass *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	if !strings.HasPrefix(name, "Parse") || !ast.IsExported(name) || pass.Facts == nil {
		return
	}
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	if ff := pass.Facts.FactsFor(fn); ff != nil && ff.MayPanic {
		pass.Reportf(fd.Name.Pos(),
			"wire entry point %s can reach panic (%s); decoders see hostile bytes first and must return errors, never panic",
			name, ff.PanicNote)
	}
}

// checkAllocGuards flags make() calls sized by unguarded non-constant
// expressions.
func checkAllocGuards(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	guards := comparisonRoots(info, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if b, ok := calleeOf(info, call).(*types.Builtin); !ok || b.Name() != "make" {
			return true
		}
		for _, size := range call.Args[1:] {
			if tv, ok := info.Types[size]; ok && tv.Value != nil {
				continue // constant size
			}
			if isLenCapCall(info, size) {
				continue // bounded by in-memory data
			}
			root := baseIdent(stripConversions(info, size))
			if root == nil {
				continue // complex expression; give it the benefit
			}
			obj := info.ObjectOf(root)
			if obj == nil {
				continue
			}
			if guardPos, ok := guards[obj]; ok && guardPos < call.Pos() {
				continue
			}
			pass.Reportf(call.Pos(),
				"allocation sized by %s without a preceding size guard; a length word off the wire must be compared against a bound (MaxFrameBytes-style) before it sizes make()",
				root.Name)
		}
		return true
	})
}

// comparisonRoots maps objects that appear in a relational comparison
// (or a min() call, the clamp idiom) to the earliest position of one.
func comparisonRoots(info *types.Info, body ast.Node) map[types.Object]token.Pos {
	out := make(map[types.Object]token.Pos)
	record := func(e ast.Expr, pos token.Pos) {
		if id := baseIdent(stripConversions(info, e)); id != nil {
			if obj := info.ObjectOf(id); obj != nil {
				if old, ok := out[obj]; !ok || pos < old {
					out[obj] = pos
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.BinaryExpr:
			switch x.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ:
				record(x.X, x.Pos())
				record(x.Y, x.Pos())
			}
		case *ast.CallExpr:
			if b, ok := calleeOf(info, x).(*types.Builtin); ok && b.Name() == "min" {
				for _, a := range x.Args {
					record(a, x.Pos())
				}
			}
		}
		return true
	})
	return out
}

// isLenCapCall reports whether e is len(x) or cap(x) (possibly inside a
// conversion): sizes derived from data already in memory are bounded by
// construction.
func isLenCapCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(stripConversions(info, e)).(*ast.CallExpr)
	if !ok {
		return false
	}
	b, ok := calleeOf(info, call).(*types.Builtin)
	return ok && (b.Name() == "len" || b.Name() == "cap")
}

// stripConversions unwraps type conversions: int(n) guards and sizes
// track the inner expression.
func stripConversions(info *types.Info, e ast.Expr) ast.Expr {
	for {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok || !isConversion(info, call) || len(call.Args) != 1 {
			return ast.Unparen(e)
		}
		e = call.Args[0]
	}
}

// checkAppendGrowth flags self-append growth inside read loops when the
// function never compares the slice's length against anything. Only
// loops that actually pull bytes from a peer stream count: self-append
// while ranging over in-memory state (collecting map keys, snapshotting
// worker IDs) is bounded by that state's size and is not wire growth.
func checkAppendGrowth(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	lenChecked := lenComparedObjects(info, fd.Body)
	reported := make(map[token.Pos]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var loopBody *ast.BlockStmt
		switch l := n.(type) {
		case *ast.ForStmt:
			loopBody = l.Body
		case *ast.RangeStmt:
			loopBody = l.Body
		default:
			return true
		}
		if !loopReadsWire(info, loopBody) {
			return true
		}
		ast.Inspect(loopBody, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			as, ok := m.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if b, ok := calleeOf(info, call).(*types.Builtin); !ok || b.Name() != "append" {
				return true
			}
			lhs := baseIdent(as.Lhs[0])
			arg0 := baseIdent(call.Args[0])
			if lhs == nil || arg0 == nil {
				return true
			}
			obj := info.ObjectOf(lhs)
			if obj == nil || obj != info.ObjectOf(arg0) {
				return true // not self-append growth
			}
			if !lenChecked[obj] && !reported[as.Pos()] {
				reported[as.Pos()] = true
				pass.Reportf(as.Pos(),
					"%s grows by self-append in a read loop but its length is never compared against a bound in this function; an unterminated peer can grow it without limit (check len(%s) against MaxFrameBytes-style cap)",
					lhs.Name, lhs.Name)
			}
			return true
		})
		return true
	})
}

// loopReadsWire reports whether the loop body pulls data from a stream:
// a call in the blocking read family (net, io, bufio, os) or a
// streaming decoder method. These loops run as long as the peer keeps
// sending, so their growth is peer-controlled.
func loopReadsWire(info *types.Info, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := calleeOf(info, call).(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if _, blocks := blockingFunc(fn); blocks {
			found = true
			return false
		}
		if strings.HasPrefix(fn.Pkg().Path(), "encoding/") {
			switch fn.Name() {
			case "Decode", "Token", "More", "Read":
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// lenComparedObjects collects objects x for which len(x) appears in a
// relational comparison anywhere in the function.
func lenComparedObjects(info *types.Info, body ast.Node) map[types.Object]bool {
	out := make(map[types.Object]bool)
	record := func(e ast.Expr) {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return
		}
		b, ok := calleeOf(info, call).(*types.Builtin)
		if !ok || b.Name() != "len" || len(call.Args) != 1 {
			return
		}
		if id := baseIdent(call.Args[0]); id != nil {
			if obj := info.ObjectOf(id); obj != nil {
				out[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if bin, ok := n.(*ast.BinaryExpr); ok {
			switch bin.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ:
				record(bin.X)
				record(bin.Y)
			}
		}
		return true
	})
	return out
}

// checkUnknownFields bans DisallowUnknownFields in wire packages.
func checkUnknownFields(pass *Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := calleeOf(pass.TypesInfo, call).(*types.Func)
		if !ok || fn.Name() != "DisallowUnknownFields" || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" {
			return true
		}
		pass.Reportf(call.Pos(),
			"DisallowUnknownFields in a wire-protocol package breaks unknown-field tolerance; peers one protocol version apart must still exchange frames (drop the call, or decode strictly outside the wire layer)")
		return true
	})
}
