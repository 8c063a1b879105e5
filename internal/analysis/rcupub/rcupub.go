// Package rcupub enforces the RCU epoch-publication discipline that
// routing.Store and replica.Replica rely on: an object published to
// readers through an atomic.Pointer must be immutable from the
// publication point on, reader-announce slots must be genuinely atomic
// and never sheared by a struct copy, and paired refcount updates must
// keep their inc-before-dec order (dec-first can drop the count to zero
// and free rows a concurrent reader still reaches).
//
// Three rules:
//
//  1. Publication freeze. In any function that calls Store/Swap (or
//     CompareAndSwap) on a sync/atomic Pointer with a locally named
//     value, a write through that value after the publication call —
//     later in source order within the function — is reported. Source
//     order is the right approximation for the repo's writer functions,
//     which build, publish, and fall off the end; re-publication loops
//     route recycled objects through retirement first, which re-binds
//     the name and resets tracking.
//
//  2. Atomic-only fields. A struct field annotated //remspan:atomic
//     must have a sync/atomic type (atomic.Uint64, atomic.Pointer, ...)
//     — raw integers "accessed carefully" are exactly the bug class the
//     padded announce slots had to avoid — and the enclosing struct
//     must never be copied by value (assignment, argument, return, or
//     dereference copy), since copying tears the slot out from under
//     the writer's reclamation scan. The sync/atomic types embed a vet
//     noCopy marker (since Go 1.19), so the stock copylocks check
//     already reports an assignment copy (b := a), a by-value
//     parameter or argument, a return and a range copy of such a
//     struct. The one shape it skips is a copy of a dereferenced call
//     result (ep := *st.cur.Load()); this rule reports that one too.
//
//  3. Refcount order. Functions annotated //remspan:refinc and
//     //remspan:refdec name the package's refcount halves. In any
//     function calling both, every decrement call must come after the
//     first increment call.
package rcupub

import (
	"go/ast"
	"go/token"
	"go/types"

	"remspan/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "rcupub",
	Doc:  "enforce RCU publication immutability, atomic-only announce slots, and inc-before-dec refcounts",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	dirs := analysis.ScanDirectives(pass)
	checkAtomicFields(pass, dirs)
	inc, dec := refFuncs(pass, dirs)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPublication(pass, fd)
			checkRefOrder(pass, fd, inc, dec)
		}
	}
	return nil, nil
}

// --- rule 1: no writes after atomic.Pointer publication ---

// publication returns the published value's root variable when call is
// ptr.Store(v), ptr.Swap(v), or ptr.CompareAndSwap(old, v) on a
// sync/atomic pointer (or other atomic type), with v rooted at a
// named local.
func publication(info *types.Info, call *ast.CallExpr) *types.Var {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return nil
	}
	var arg ast.Expr
	switch fn.Name() {
	case "Store", "Swap":
		if len(call.Args) != 1 {
			return nil
		}
		arg = call.Args[0]
	case "CompareAndSwap":
		if len(call.Args) != 2 {
			return nil
		}
		arg = call.Args[1]
	default:
		return nil
	}
	// Only pointer-typed publications freeze a reachable object.
	if arg == nil {
		return nil
	}
	if tv, ok := info.Types[arg]; !ok || tv.Type == nil || !isPointerLike(tv.Type) {
		return nil
	}
	id, ok := ast.Unparen(arg).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

func isPointerLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

func checkPublication(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	// First pass: publication points (value var -> earliest publish end).
	published := make(map[*types.Var]token.Pos)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if v := publication(info, call); v != nil {
			if old, ok := published[v]; !ok || call.End() < old {
				published[v] = call.End()
			}
		}
		return true
	})
	if len(published) == 0 {
		return
	}
	// Second pass: writes through a published root after its
	// publication point. A rebind of the root itself (v = ...) ends
	// tracking from that point for later statements, approximated by
	// ignoring direct assignments to the bare identifier.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			root, bare := writeRoot(info, lhs)
			if root == nil || bare {
				continue
			}
			if pub, ok := published[root]; ok && as.Pos() > pub {
				pass.Reportf(as.Pos(), "write through %s after it was published via atomic pointer Store: published epochs are immutable", root.Name())
			}
		}
		return true
	})
}

// writeRoot resolves the variable a write expression ultimately stores
// into; bare reports a direct rebinding of the identifier itself.
func writeRoot(info *types.Info, lhs ast.Expr) (root *types.Var, bare bool) {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		v, _ := info.Uses[e].(*types.Var)
		if v == nil {
			v, _ = info.Defs[e].(*types.Var)
		}
		return v, true
	case *ast.SelectorExpr:
		r, _ := writeRoot(info, e.X)
		return r, false
	case *ast.IndexExpr:
		r, _ := writeRoot(info, e.X)
		return r, false
	case *ast.StarExpr:
		r, _ := writeRoot(info, e.X)
		return r, false
	}
	return nil, false
}

// --- rule 2: //remspan:atomic fields ---

func checkAtomicFields(pass *analysis.Pass, dirs *analysis.Directives) {
	info := pass.TypesInfo
	guarded := make(map[*types.Named]bool) // structs containing annotated fields
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				var named *types.Named
				if obj, ok := info.Defs[ts.Name]; ok {
					named, _ = obj.Type().(*types.Named)
				}
				for _, field := range st.Fields.List {
					if !dirs.Field(field, analysis.DirAtomic) {
						continue
					}
					ft := info.Types[field.Type].Type
					if !isAtomicType(ft) {
						pass.Reportf(field.Pos(), "//remspan:atomic field must have a sync/atomic type, not %s", ft)
					}
					if named != nil {
						guarded[named] = true
					}
				}
			}
		}
	}
	if len(guarded) == 0 {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			checkCopies(pass, guarded, n)
			return true
		})
	}
}

func isAtomicType(t types.Type) bool {
	if t == nil {
		return false
	}
	// A slot table ([]atomic.Uint32, [4]atomic.Bool) is as atomic as a
	// single slot: unwrap the element type.
	switch seq := t.(type) {
	case *types.Slice:
		return isAtomicType(seq.Elem())
	case *types.Array:
		return isAtomicType(seq.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic"
}

// isGuardedValue reports whether e is an existing value (not a fresh
// composite literal) of a guarded struct type, so that using it by
// value copies the atomic slots.
func isGuardedValue(info *types.Info, guarded map[*types.Named]bool, e ast.Expr) bool {
	e = ast.Unparen(e)
	if _, ok := e.(*ast.CompositeLit); ok {
		return false // construction, not a copy
	}
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	n, ok := tv.Type.(*types.Named)
	return ok && guarded[n]
}

func checkCopies(pass *analysis.Pass, guarded map[*types.Named]bool, n ast.Node) {
	info := pass.TypesInfo
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) != len(n.Rhs) {
			return
		}
		for _, rhs := range n.Rhs {
			if isGuardedValue(info, guarded, rhs) {
				pass.Reportf(rhs.Pos(), "copying struct with //remspan:atomic fields by value tears its atomic slots")
			}
		}
	case *ast.CallExpr:
		if tv, ok := info.Types[ast.Unparen(n.Fun)]; ok && tv.IsType() {
			return // conversions don't copy struct values meaningfully here
		}
		for _, arg := range n.Args {
			if isGuardedValue(info, guarded, arg) {
				pass.Reportf(arg.Pos(), "passing struct with //remspan:atomic fields by value tears its atomic slots")
			}
		}
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			if isGuardedValue(info, guarded, r) {
				pass.Reportf(r.Pos(), "returning struct with //remspan:atomic fields by value tears its atomic slots")
			}
		}
	case *ast.RangeStmt:
		if n.Value != nil && isGuardedValue(info, guarded, n.Value) {
			pass.Reportf(n.Value.Pos(), "ranging struct with //remspan:atomic fields by value tears its atomic slots")
		}
	}
}

// --- rule 3: refcount inc-before-dec ---

// refFuncs collects the function objects annotated refinc / refdec.
func refFuncs(pass *analysis.Pass, dirs *analysis.Directives) (inc, dec map[*types.Func]bool) {
	inc = make(map[*types.Func]bool)
	dec = make(map[*types.Func]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if dirs.Func(fd, analysis.DirRefInc) {
				inc[obj] = true
			}
			if dirs.Func(fd, analysis.DirRefDec) {
				dec[obj] = true
			}
		}
	}
	return inc, dec
}

func checkRefOrder(pass *analysis.Pass, fd *ast.FuncDecl, inc, dec map[*types.Func]bool) {
	if len(inc) == 0 || len(dec) == 0 {
		return
	}
	info := pass.TypesInfo
	firstInc := token.NoPos
	type decCall struct {
		pos  token.Pos
		name string
	}
	var decs []decCall
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var callee *types.Func
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			callee, _ = info.Uses[fun].(*types.Func)
		case *ast.SelectorExpr:
			callee, _ = info.Uses[fun.Sel].(*types.Func)
		}
		if callee == nil {
			return true
		}
		if inc[callee] && (!firstInc.IsValid() || call.Pos() < firstInc) {
			firstInc = call.Pos()
		}
		if dec[callee] {
			decs = append(decs, decCall{call.Pos(), callee.Name()})
		}
		return true
	})
	if !firstInc.IsValid() {
		return
	}
	for _, d := range decs {
		if d.pos < firstInc {
			pass.Reportf(d.pos, "refcount decrement %s before the increment in the same function: dec-first can free rows a reader still reaches", d.name)
		}
	}
}
