// Package rcupub enforces one invariant of the state the repo shares
// across goroutines without a lock — replica.Replica's published
// repState pointer and health flags, and routing.Store's epoch seq:
// fields holding such state must be genuinely atomic and never
// sheared by a struct copy.
//
// Atomic-only fields. A struct field annotated //remspan:atomic must
// have a sync/atomic type (atomic.Uint64, atomic.Pointer, ...) — a raw
// integer "accessed carefully" is exactly the data race the annotation
// exists to rule out — and the enclosing struct must never be copied
// by value (assignment, argument, return, or dereference copy), since
// a copy reads the field non-atomically and detaches it from the
// goroutines that update it. The sync/atomic types embed a vet noCopy
// marker (since Go 1.19), so the stock copylocks check already reports
// an assignment copy (b := a), a by-value parameter or argument, a
// return and a range copy of such a struct. The one shape it skips is
// a copy of a dereferenced call result (ep := *st.Epoch()). This rule
// reports that shape for a struct from any package that holds a
// sync/atomic value inline, annotated or not: the annotations of
// another package are invisible here, and the copy tears the slots all
// the same.
package rcupub

import (
	"go/ast"
	"go/token"
	"go/types"

	"remspan/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "rcupub",
	Doc:  "enforce atomic-only, never-copied shared fields",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	checkAtomicFields(pass, analysis.ScanDirectives(pass))
	return nil, nil
}

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

// copied names what using e by value copies, or returns "" when the
// use copies no atomic slot. e copies slots when it is an existing
// value (not a fresh composite literal) of a struct this package
// guards with //remspan:atomic, or a dereferenced call result (*f(),
// the shape stock copylocks skips) of a type from any package that
// holds a sync/atomic value inline.
func copied(info *types.Info, guarded map[*types.Named]bool, e ast.Expr) string {
	e = ast.Unparen(e)
	if _, ok := e.(*ast.CompositeLit); ok {
		return "" // construction, not a copy
	}
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return ""
	}
	if n, ok := types.Unalias(tv.Type).(*types.Named); ok && guarded[n] {
		return "struct with //remspan:atomic fields"
	}
	if star, ok := e.(*ast.StarExpr); ok {
		if _, ok := ast.Unparen(star.X).(*ast.CallExpr); ok && holdsAtomic(tv.Type) {
			return "dereferenced call result with sync/atomic fields"
		}
	}
	return ""
}

// holdsAtomic reports whether a value of type t holds a sync/atomic
// value inline — as itself, a struct field or an array element, at any
// depth — so that copying the value copies the atomic.
func holdsAtomic(t types.Type) bool {
	t = types.Unalias(t)
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic" {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if holdsAtomic(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return holdsAtomic(u.Elem())
	}
	return false
}

func checkCopies(pass *analysis.Pass, guarded map[*types.Named]bool, n ast.Node) {
	info := pass.TypesInfo
	report := func(e ast.Expr, verb string) {
		if what := copied(info, guarded, e); what != "" {
			pass.Reportf(e.Pos(), "%s %s by value tears its atomic slots", verb, what)
		}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) != len(n.Rhs) {
			return
		}
		for _, rhs := range n.Rhs {
			report(rhs, "copying")
		}
	case *ast.ValueSpec:
		for _, v := range n.Values {
			report(v, "copying")
		}
	case *ast.CallExpr:
		if tv, ok := info.Types[ast.Unparen(n.Fun)]; ok && tv.IsType() {
			return // conversions don't copy struct values meaningfully here
		}
		for _, arg := range n.Args {
			report(arg, "passing")
		}
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			report(r, "returning")
		}
	case *ast.RangeStmt:
		if n.Value != nil {
			report(n.Value, "ranging")
		}
	}
}
