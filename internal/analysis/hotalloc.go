package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc statically proves allocation freedom for every function
// reachable from the //lint:hotpath roots (the netsim advance loop and the
// per-sample telemetry path). It walks the cross-package call graph from
// the roots, models lint:cold-guarded branches and failure exits as cold,
// and flags every allocation-inducing construct on the remaining hot
// region: make/new, append without a capacity guard in the same function,
// map/slice composite literals and &T{...}, interface boxing at call
// sites, closure creation, go/defer statements, string concatenation,
// variadic argument packing, string<->[]byte/[]rune conversions, and
// calls that cannot be resolved (function values) or leave the module
// (stdlib), which the analysis cannot prove anything about.
//
// This turns the allocs/op benchmark result into a lint-time proof; the
// benchreport hotcheck gate cross-checks the two views.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "functions reachable from //lint:hotpath roots must be provably allocation-free",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	m := pass.Module
	if m == nil || len(m.Roots()) == 0 {
		return
	}
	hot := m.HotFuncs()
	for _, fn := range m.funcList {
		if _, ok := hot[fn]; !ok {
			continue
		}
		node := m.node(fn)
		if node == nil || node.pkg.Types != pass.Pkg || node.decl.Body == nil {
			continue
		}
		checkHotFunc(pass, m, node)
	}
}

// checkHotFunc flags allocation-inducing constructs on the hot region of
// one reachable function.
func checkHotFunc(pass *Pass, m *Module, node *funcNode) {
	info := node.pkg.Info
	cold := m.coldRegions(info, node.decl.Body)
	guarded := capacityGuards(info, node.decl.Body)
	trace := m.hotTrace(node.fn)

	report := func(pos token.Pos, format string, args ...any) {
		args = append(args, trace)
		pass.Reportf(pos, format+" on the hot path (%s)", args...)
	}

	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		if cold[n] {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, m, node, n, guarded, report)
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				report(n.Pos(), "map literal allocates")
			case *types.Slice:
				report(n.Pos(), "slice literal allocates")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.FuncLit:
			report(n.Pos(), "closure creation allocates")
		case *ast.GoStmt:
			report(n.Pos(), "go statement allocates a goroutine")
		case *ast.DeferStmt:
			report(n.Pos(), "defer allocates its record in a loop-bearing function")
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(info, n.X) {
				if tv, ok := info.Types[n]; !ok || tv.Value == nil { // constants fold at compile time
					report(n.Pos(), "string concatenation allocates")
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(info, n.Lhs[0]) {
				report(n.Pos(), "string += allocates")
			}
		}
		return true
	})
}

// checkHotCall handles the call-shaped findings: builtin allocators,
// allocating conversions, unprovable targets, interface boxing, and
// variadic packing.
func checkHotCall(pass *Pass, m *Module, node *funcNode, call *ast.CallExpr,
	guarded map[string]bool, report func(token.Pos, string, ...any)) {
	info := node.pkg.Info

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call.Pos(), "make allocates")
			case "new":
				report(call.Pos(), "new allocates")
			case "append":
				if len(call.Args) > 0 && !guarded[types.ExprString(ast.Unparen(call.Args[0]))] {
					report(call.Pos(),
						"append without a capacity guard (len(x)==cap(x) check in the same function) may grow")
				}
			}
			return
		}
	}

	// Allocating conversions: string <-> []byte / []rune.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type.Underlying()
		src := info.Types[call.Args[0]].Type
		if src != nil && isStringByteConversion(dst, src.Underlying()) {
			report(call.Pos(), "string/byte-slice conversion copies and allocates")
		}
		return
	}

	targets, dynamic := m.callTargets(node.pkg, call)
	if dynamic {
		report(call.Pos(), "dynamic call through a function value cannot be proven allocation-free")
		return
	}
	for _, t := range targets {
		if m.node(t) == nil && t.Pkg() != nil && !m.isLocal(t.Pkg()) {
			report(call.Pos(), "call to %s leaves the module; allocation freedom is not provable", t.FullName())
		}
	}

	// Interface boxing and variadic packing at the call site.
	sigType := info.Types[call.Fun].Type
	sig, ok := sigType.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // spread: no packing, no boxing beyond the slice itself
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := info.Types[arg]
		if at.Type == nil || at.Value != nil || isNilIdent(info, arg) {
			continue // constants and nil don't box
		}
		if _, already := at.Type.Underlying().(*types.Interface); already {
			continue
		}
		if pointerShaped(at.Type) {
			continue // pointer-shaped values fit the iface data word
		}
		report(arg.Pos(), "argument boxed into interface parameter allocates")
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= params.Len() {
		report(call.Pos(), "variadic call packs arguments into a new slice")
	}
}

// capacityGuards collects the expressions whose capacity the function
// visibly manages: any X appearing in a len(X)==cap(X) (or <, >=, ...)
// comparison. An append to a guarded expression is treated as staying
// within proven capacity — the author compacts or bounds it — and the
// benchreport hotcheck gate verifies the claim dynamically.
func capacityGuards(info *types.Info, body *ast.BlockStmt) map[string]bool {
	guards := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		default:
			return true
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			call, ok := ast.Unparen(side).(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				continue
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				continue
			}
			if b, ok := info.Uses[id].(*types.Builtin); ok && (b.Name() == "len" || b.Name() == "cap") {
				guards[types.ExprString(ast.Unparen(call.Args[0]))] = true
			}
		}
		return true
	})
	return guards
}

func isStringExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func isStringByteConversion(dst, src types.Type) bool {
	return (isStringKind(dst) && isByteOrRuneSlice(src)) ||
		(isByteOrRuneSlice(dst) && isStringKind(src))
}

func isStringKind(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// pointerShaped reports whether values of t occupy a single pointer word,
// so converting them to an interface stores the value directly without a
// heap allocation.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Kind() == types.UnsafePointer
	}
	return false
}
