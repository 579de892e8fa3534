package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// GoCapture enforces the module's concurrency discipline on every `go`
// statement closure and every worker function handed to parrun.Map or
// parrun.MapWorker:
//
//   - shared mutable state captured by the closure must only be written
//     through the ordered-commit slot pattern (out[i] = ... with a
//     closure-local index) or under a mutex the closure itself locks;
//     plain assignments, field writes, and any captured-map writes race
//     and — worse for this repo — commit results in scheduler order,
//     breaking bit-for-bit determinism;
//   - on modules before Go 1.22, goroutines must not capture the loop
//     variable of an enclosing for/range statement;
//   - lock-bearing types (sync.Mutex and friends) must not be copied via
//     value parameters or value receivers.
var GoCapture = &Analyzer{
	Name: "gocapture",
	Doc:  "goroutine closures must follow the slot pattern or hold a mutex; no loop-var capture, no lock copies",
	Run:  runGoCapture,
}

func runGoCapture(pass *Pass) {
	preLoopVarSemantics := goVersionBefore(pass.Package.GoVersion, 1, 22)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					checkClosureWrites(pass, lit, "go statement closure")
				}
			case *ast.CallExpr:
				if isParrunMap(pass.Info, n) && len(n.Args) > 0 {
					if lit, ok := ast.Unparen(n.Args[len(n.Args)-1]).(*ast.FuncLit); ok {
						checkClosureWrites(pass, lit, "parrun.Map worker")
					}
				}
			case *ast.FuncDecl:
				checkLockCopies(pass, n.Recv, n.Type)
				if preLoopVarSemantics && n.Body != nil {
					checkLoopVarCapture(pass, n.Body)
				}
			case *ast.FuncLit:
				checkLockCopies(pass, nil, n.Type)
			}
			return true
		})
	}
}

// isParrunMap reports whether call invokes the module's parrun.Map or
// parrun.MapWorker parallel runner (matched by package path suffix so the
// check works in any module embedding the library).
func isParrunMap(info *types.Info, call *ast.CallExpr) bool {
	f := calleeFunc(info, call)
	if f == nil || (f.Name() != "Map" && f.Name() != "MapWorker") || f.Pkg() == nil {
		return false
	}
	path := f.Pkg().Path()
	return path == "parrun" || strings.HasSuffix(path, "/parrun")
}

// checkClosureWrites reports writes to captured state that follow neither
// the slot pattern nor a mutex. If the closure locks a captured mutex
// anywhere in its body, writes are considered protected and skipped —
// the analyzer checks the discipline, not lock placement.
func checkClosureWrites(pass *Pass, lit *ast.FuncLit, what string) {
	if lit.Body == nil {
		return
	}
	free := func(obj types.Object) bool {
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return false
		}
		return v.Pos() < lit.Pos() || v.Pos() > lit.End()
	}
	if closureLocksMutex(pass.Info, lit, free) {
		return
	}

	checkWrite := func(target ast.Expr) {
		switch t := ast.Unparen(target).(type) {
		case *ast.Ident:
			if obj := pass.Info.Uses[t]; obj != nil && free(obj) {
				pass.Reportf(t.Pos(),
					"%s assigns captured variable %s directly; commit results through an index-owned slot (out[i] = ...) or a mutex", what, t.Name)
			}
		case *ast.IndexExpr:
			baseObj := rootIdentObject(pass.Info, t.X)
			if baseObj == nil || !free(baseObj) {
				return
			}
			if tv, ok := pass.Info.Types[t.X]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(t.Pos(),
						"%s writes captured map %s; map writes race regardless of key — use a slot slice or a mutex", what, baseObj.Name())
					return
				}
			}
			if !indexIsClosureLocal(pass.Info, t.Index, lit) {
				pass.Reportf(t.Pos(),
					"%s writes %s[...] with an index captured from outside the closure; the slot pattern needs a closure-owned index", what, baseObj.Name())
			}
		case *ast.SelectorExpr:
			if baseObj := rootIdentObject(pass.Info, t.X); baseObj != nil && free(baseObj) {
				pass.Reportf(t.Pos(),
					"%s writes field %s of captured %s without a mutex", what, t.Sel.Name, baseObj.Name())
			}
		case *ast.StarExpr:
			if obj := rootIdentObject(pass.Info, t.X); obj != nil && free(obj) {
				pass.Reportf(t.Pos(),
					"%s writes through captured pointer %s without a mutex", what, obj.Name())
			}
		}
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(n.X)
		}
		return true
	})
}

// closureLocksMutex reports whether lit calls Lock/RLock on a captured
// sync lock anywhere in its body.
func closureLocksMutex(info *types.Info, lit *ast.FuncLit, free func(types.Object) bool) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		f, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || f.Pkg() == nil || f.Pkg().Path() != "sync" {
			return true
		}
		if obj := rootIdentObject(info, sel.X); obj != nil && free(obj) {
			found = true
		}
		return true
	})
	return found
}

// indexIsClosureLocal reports whether every variable in an index
// expression is declared inside the closure — the ownership property the
// slot pattern rests on.
func indexIsClosureLocal(info *types.Info, index ast.Expr, lit *ast.FuncLit) bool {
	local := true
	ast.Inspect(index, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			local = false
		}
		return local
	})
	return local
}

// rootIdentObject peels selectors, indexing and derefs down to the
// leftmost identifier's object.
func rootIdentObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.Uses[t]
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// checkLoopVarCapture flags goroutines launched inside a loop that
// reference the loop's iteration variables (a data race before Go 1.22's
// per-iteration variables).
func checkLoopVarCapture(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		var loopVars []types.Object
		var loopBody *ast.BlockStmt
		switch n := n.(type) {
		case *ast.RangeStmt:
			if n.Tok.String() == ":=" {
				if o := rangeVarObject(pass.Info, n.Key, true); o != nil {
					loopVars = append(loopVars, o)
				}
				if o := rangeVarObject(pass.Info, n.Value, true); o != nil {
					loopVars = append(loopVars, o)
				}
			}
			loopBody = n.Body
		case *ast.ForStmt:
			if init, ok := n.Init.(*ast.AssignStmt); ok && init.Tok.String() == ":=" {
				for _, lhs := range init.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						if o := pass.Info.Defs[id]; o != nil {
							loopVars = append(loopVars, o)
						}
					}
				}
			}
			loopBody = n.Body
		default:
			return true
		}
		if len(loopVars) == 0 || loopBody == nil {
			return true
		}
		ast.Inspect(loopBody, func(inner ast.Node) bool {
			gs, ok := inner.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
			if !ok {
				return true
			}
			for _, lv := range loopVars {
				if blockUsesObject(pass.Info, lit.Body, lv) {
					pass.Reportf(gs.Pos(),
						"goroutine captures loop variable %s (module targets Go %s, before per-iteration loop variables); pass it as an argument or copy it",
						lv.Name(), pass.Package.GoVersion)
				}
			}
			return true
		})
		return true
	})
}

// blockUsesObject reports whether any identifier in block resolves to obj.
func blockUsesObject(info *types.Info, block *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(block, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// checkLockCopies flags value parameters and value receivers whose type
// contains a sync lock — copying one silently forks the lock state.
func checkLockCopies(pass *Pass, recv *ast.FieldList, ft *ast.FuncType) {
	check := func(field *ast.Field, what string) {
		var t types.Type
		if len(field.Names) > 0 {
			if obj := pass.Info.Defs[field.Names[0]]; obj != nil {
				t = obj.Type()
			}
		}
		if t == nil {
			if tv, ok := pass.Info.Types[field.Type]; ok {
				t = tv.Type
			}
		}
		if t == nil {
			return
		}
		if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
			return
		}
		if lock := containsLockType(t, 0); lock != "" {
			pass.Reportf(field.Pos(), "%s copies %s (contains %s); use a pointer", what, t.String(), lock)
		}
	}
	if recv != nil {
		for _, f := range recv.List {
			check(f, "value receiver")
		}
	}
	if ft.Params != nil {
		for _, f := range ft.Params.List {
			check(f, "value parameter")
		}
	}
}

// containsLockType returns the name of a sync lock type embedded (by
// value) anywhere in t, or "".
func containsLockType(t types.Type, depth int) string {
	if depth > 4 {
		return ""
	}
	switch tt := t.(type) {
	case *types.Named:
		if pkg := tt.Obj().Pkg(); pkg != nil && pkg.Path() == "sync" {
			switch tt.Obj().Name() {
			case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond", "Pool", "Map":
				return "sync." + tt.Obj().Name()
			}
		}
		return containsLockType(tt.Underlying(), depth+1)
	case *types.Struct:
		for i := 0; i < tt.NumFields(); i++ {
			if lock := containsLockType(tt.Field(i).Type(), depth+1); lock != "" {
				return lock
			}
		}
	case *types.Array:
		return containsLockType(tt.Elem(), depth+1)
	}
	return ""
}

// goVersionBefore reports whether version (a go.mod "go" directive like
// "1.21" or "1.21.3") is older than major.minor. Unparseable versions are
// treated as new enough, keeping the check quiet rather than noisy.
func goVersionBefore(version string, major, minor int) bool {
	parts := strings.SplitN(strings.TrimSpace(version), ".", 3)
	if len(parts) < 2 {
		return false
	}
	maj, err1 := strconv.Atoi(parts[0])
	min, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		return false
	}
	if maj != major {
		return maj < major
	}
	return min < minor
}
