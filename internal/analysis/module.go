package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Module is the whole-program view shared by the call-graph-aware
// analyzers (hotalloc, gocapture, dettaint). It indexes every function
// declaration across the loaded packages, resolves the source directives
// that configure analysis (hot-path roots, cold guards, determinism
// sinks), and memoizes the hot-path reachability set and the
// interprocedural taint summaries so each analyzer pays for them once.
//
// Directives, all ordinary comments so they need no build tooling:
//
//	//lint:hotpath <reason>   on a func decl: a reachability root — the
//	                          function and everything it (transitively)
//	                          calls on non-cold paths must be proven
//	                          allocation-free by hotalloc.
//	lint:cold                 in a field or var comment: conditions that
//	                          test this object (x, x != nil, x == nil,
//	                          or a && conjunct of those) guard cold
//	                          paths; their if-bodies are not analyzed.
//	lint:detsink              in a type comment: values stored into this
//	                          type's fields are determinism-critical;
//	                          dettaint reports nondeterministic writes.
type Module struct {
	Pkgs []*Package

	funcs    map[*types.Func]*funcNode
	funcList []*types.Func // deterministic iteration order
	cold     map[types.Object]bool
	sinks    map[types.Object]bool // lint:detsink type names
	roots    []*types.Func

	hot       map[*types.Func]hotVia
	summaries map[*types.Func]*taintSummary
}

// funcNode ties a function object to its declaration and owning package.
type funcNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
}

// hotVia records how a function became hot-reachable: the caller and the
// call site, or zeros for a declared root.
type hotVia struct {
	caller *types.Func
	pos    token.Pos
}

const (
	hotpathPrefix = "//lint:hotpath"
	coldMarker    = "lint:cold"
	sinkMarker    = "lint:detsink"
)

// NewModule indexes pkgs and resolves analysis directives. It is cheap
// relative to type-checking; reachability and taint summaries are
// computed lazily on first use.
func NewModule(pkgs []*Package) *Module {
	m := &Module{
		Pkgs:  pkgs,
		funcs: make(map[*types.Func]*funcNode),
		cold:  make(map[types.Object]bool),
		sinks: make(map[types.Object]bool),
	}
	for _, p := range pkgs {
		for _, file := range p.Files {
			m.indexFile(p, file)
		}
	}
	sort.Slice(m.funcList, func(i, j int) bool {
		return m.funcList[i].Pos() < m.funcList[j].Pos()
	})
	sort.Slice(m.roots, func(i, j int) bool {
		return m.roots[i].Pos() < m.roots[j].Pos()
	})
	return m
}

func (m *Module) indexFile(p *Package, file *ast.File) {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		fn, ok := p.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		m.funcs[fn] = &funcNode{fn: fn, decl: fd, pkg: p}
		m.funcList = append(m.funcList, fn)
		if commentGroupHasPrefix(fd.Doc, hotpathPrefix) {
			m.roots = append(m.roots, fn)
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.StructType:
			for _, field := range n.Fields.List {
				if commentGroupContains(field.Doc, coldMarker) ||
					commentGroupContains(field.Comment, coldMarker) {
					for _, name := range field.Names {
						if obj := p.Info.Defs[name]; obj != nil {
							m.cold[obj] = true
						}
					}
				}
			}
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					if commentGroupContains(spec.Doc, coldMarker) ||
						commentGroupContains(spec.Comment, coldMarker) ||
						(len(n.Specs) == 1 && commentGroupContains(n.Doc, coldMarker)) {
						for _, name := range spec.Names {
							if obj := p.Info.Defs[name]; obj != nil {
								m.cold[obj] = true
							}
						}
					}
				case *ast.TypeSpec:
					if commentGroupContains(spec.Doc, sinkMarker) ||
						commentGroupContains(spec.Comment, sinkMarker) ||
						(len(n.Specs) == 1 && commentGroupContains(n.Doc, sinkMarker)) {
						if obj := p.Info.Defs[spec.Name]; obj != nil {
							m.sinks[obj] = true
						}
					}
				}
			}
		}
		return true
	})
}

func commentGroupHasPrefix(cg *ast.CommentGroup, prefix string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.HasPrefix(c.Text, prefix) {
			return true
		}
	}
	return false
}

func commentGroupContains(cg *ast.CommentGroup, marker string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.Contains(c.Text, marker) {
			return true
		}
	}
	return false
}

// Roots returns the declared //lint:hotpath reachability roots in source
// order.
func (m *Module) Roots() []*types.Func { return m.roots }

// node returns the declaration record for a module-local function, or nil
// for imported/synthetic functions.
func (m *Module) node(fn *types.Func) *funcNode {
	if fn == nil {
		return nil
	}
	if n, ok := m.funcs[fn]; ok {
		return n
	}
	// Generic instantiations resolve to a distinct *types.Func; fall back
	// to the origin declaration.
	if o := fn.Origin(); o != fn {
		return m.funcs[o]
	}
	return nil
}

// isLocal reports whether pkg belongs to the analyzed module.
func (m *Module) isLocal(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	for _, p := range m.Pkgs {
		if p.Types == pkg {
			return true
		}
	}
	return false
}

// coldObject reports whether obj carries a lint:cold marker.
func (m *Module) coldObject(obj types.Object) bool { return obj != nil && m.cold[obj] }

// sinkType reports whether named resolves to a lint:detsink-marked type.
func (m *Module) sinkType(t types.Type) bool {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return m.sinks[tt.Obj()]
		default:
			return false
		}
	}
}

// callTargets resolves the possible callees of call within pkg. For a
// static call it returns the single callee; for a call through an
// interface method it returns every module-local implementation of that
// method (the module's interface surface is closed for analysis
// purposes). dynamic is true when the call goes through a function value
// or an interface with no local implementation, i.e. the target set is
// unknowable statically. Builtins and conversions return (nil, false).
func (m *Module) callTargets(pkg *Package, call *ast.CallExpr) (targets []*types.Func, dynamic bool) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return nil, false // conversion
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := pkg.Info.Uses[fun].(type) {
		case *types.Func:
			return []*types.Func{obj}, false
		case *types.Builtin:
			return nil, false
		}
		return nil, true // call through a function-typed variable
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			recv := sel.Recv()
			if iface, ok := recv.Underlying().(*types.Interface); ok {
				impls := m.implementers(iface, fun.Sel.Name)
				if len(impls) == 0 {
					return nil, true
				}
				return impls, false
			}
		}
		if f, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return []*types.Func{f}, false
		}
		return nil, true // func-typed field or variable
	case *ast.IndexExpr, *ast.IndexListExpr:
		// Generic instantiation: resolve the underlying identifier.
		var x ast.Expr
		if ie, ok := fun.(*ast.IndexExpr); ok {
			x = ie.X
		} else {
			x = fun.(*ast.IndexListExpr).X
		}
		inner := &ast.CallExpr{Fun: x, Args: call.Args}
		return m.callTargets(pkg, inner)
	}
	return nil, true
}

// implementers returns every module-local method named name whose
// receiver type implements iface, sorted by position for deterministic
// reporting.
func (m *Module) implementers(iface *types.Interface, name string) []*types.Func {
	var out []*types.Func
	for _, fn := range m.funcList {
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil || fn.Name() != name {
			continue
		}
		rt := sig.Recv().Type()
		if types.Implements(rt, iface) {
			out = append(out, fn)
			continue
		}
		if _, isPtr := rt.(*types.Pointer); !isPtr {
			if types.Implements(types.NewPointer(rt), iface) {
				out = append(out, fn)
			}
		}
	}
	return out
}

// HotFuncs computes (once) the set of functions reachable from the
// //lint:hotpath roots via non-cold paths, mapping each to how it was
// reached. Calls inside cold regions (see coldRegions) do not propagate
// reachability; calls to functions outside the module are not traversed —
// hotalloc flags those at the call site instead.
func (m *Module) HotFuncs() map[*types.Func]hotVia {
	if m.hot != nil {
		return m.hot
	}
	m.hot = make(map[*types.Func]hotVia)
	queue := make([]*types.Func, 0, len(m.roots))
	for _, r := range m.roots {
		m.hot[r] = hotVia{}
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		node := m.node(fn)
		if node == nil || node.decl.Body == nil {
			continue
		}
		cold := m.coldRegions(node.pkg.Info, node.decl.Body)
		ast.Inspect(node.decl.Body, func(n ast.Node) bool {
			if cold[n] {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			targets, _ := m.callTargets(node.pkg, call)
			for _, t := range targets {
				tn := m.node(t)
				if tn == nil {
					continue // outside the module; hotalloc reports at site
				}
				key := tn.fn
				if _, seen := m.hot[key]; !seen {
					m.hot[key] = hotVia{caller: fn, pos: call.Pos()}
					queue = append(queue, key)
				}
			}
			return true
		})
	}
	return m.hot
}

// hotTrace renders the reachability chain from a root to fn, e.g.
// "advance → deliver → push".
func (m *Module) hotTrace(fn *types.Func) string {
	hot := m.HotFuncs()
	var names []string
	seen := make(map[*types.Func]bool)
	for f := fn; f != nil && !seen[f]; {
		seen[f] = true
		names = append(names, f.Name())
		via, ok := hot[f]
		if !ok {
			break
		}
		f = via.caller
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " → ")
}

// coldRegions returns the statement subtrees of body that only execute on
// cold paths and are therefore excluded from hot-path analysis:
//
//   - the body of an if whose condition tests a lint:cold-marked object
//     (x, !x is NOT cold, x != nil, x == nil, indexing/selecting through
//     one, or any && conjunct of those);
//   - the body of an if that terminates by returning a non-nil error or
//     panicking (failure exits are off the steady-state path);
//   - a statement that is itself a panic call (crash path).
//
// Else branches always stay hot.
func (m *Module) coldRegions(info *types.Info, body *ast.BlockStmt) map[ast.Node]bool {
	cold := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if m.coldCond(info, n.Cond) || errorExitBlock(info, n.Body) {
				cold[n.Body] = true
			}
		case *ast.ExprStmt:
			if isPanicCall(info, n.X) {
				cold[n] = true
			}
		}
		return true
	})
	return cold
}

// coldCond reports whether cond is a cold-path guard per coldRegions.
func (m *Module) coldCond(info *types.Info, cond ast.Expr) bool {
	cond = ast.Unparen(cond)
	switch e := cond.(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			return m.coldCond(info, e.X) || m.coldCond(info, e.Y)
		case token.EQL, token.NEQ:
			if isNilIdent(info, e.X) {
				return m.coldRef(info, e.Y)
			}
			if isNilIdent(info, e.Y) {
				return m.coldRef(info, e.X)
			}
		}
		return false
	default:
		return m.coldRef(info, cond)
	}
}

// coldRef reports whether e reads a lint:cold-marked object, looking
// through selectors and indexing.
func (m *Module) coldRef(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return m.coldObject(info.Uses[e])
	case *ast.SelectorExpr:
		return m.coldObject(info.Uses[e.Sel]) || m.coldRef(info, e.X)
	case *ast.IndexExpr:
		return m.coldRef(info, e.X)
	}
	return false
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// errorExitBlock reports whether block ends by returning a non-nil error
// or panicking — the shape of a failure exit.
func errorExitBlock(info *types.Info, block *ast.BlockStmt) bool {
	if block == nil || len(block.List) == 0 {
		return false
	}
	switch last := block.List[len(block.List)-1].(type) {
	case *ast.ReturnStmt:
		for _, res := range last.Results {
			if isNilIdent(info, res) {
				continue
			}
			// A concrete error type (e.g. *ProgressError) marks the exit
			// just as well as the error interface itself.
			if tv, ok := info.Types[res]; ok && implementsError(tv.Type) {
				return true
			}
		}
		return false
	case *ast.ExprStmt:
		return isPanicCall(info, last.X)
	}
	return false
}

func isPanicCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// describeRoot renders a root list for diagnostics, e.g. when no roots
// are declared.
func (m *Module) describeRoot() string {
	if len(m.roots) == 0 {
		return "no //lint:hotpath roots declared"
	}
	names := make([]string, len(m.roots))
	for i, r := range m.roots {
		names[i] = r.Name()
	}
	return fmt.Sprintf("roots: %s", strings.Join(names, ", "))
}
