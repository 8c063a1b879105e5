// Package hotalloc rejects allocating constructs in functions marked
// //remspan:hotpath.
//
// The repo's steady-state paths (domtree CSR builders, graph
// BFS/BitScratch/BallScratch sweeps, spanner verification,
// dynamic.ApplyBatch, distsim refloods, the routing batch builder and
// Store writer, the replica apply path) are pinned allocation-free by
// ReportAllocs benchmarks and AllocsPerRun tests — but those fire after
// a regression lands, and only on the graph shapes the bench happens to
// drive. hotalloc moves the check to vet time: inside a hotpath
// function it reports
//
//   - make and new calls, and &T{...} pointer composite literals;
//   - slice and map composite literals;
//   - append calls that are not the amortized reuse idioms
//     s = append(s, ...) / s = append(s[:k], ...) (a grow of any other
//     destination is a fresh allocation by construction);
//   - function literals that capture enclosing variables and escape —
//     a literal invoked in place, or bound to a local used only as a
//     callee, stays on the stack and is accepted;
//   - bound method values (x.M used as a value allocates);
//   - interface boxing: passing, assigning, returning, or converting a
//     non-pointer-shaped concrete value where an interface is expected;
//   - string concatenation and string<->[]byte/[]rune conversions;
//   - any call into package fmt.
//
// A statement annotated //remspan:coldpath (same line or the line
// above) is exempt with its whole subtree: the documented
// init/grow/error branch that is off the steady state by construction.
// panic(...) statements are exempt implicitly — they are terminal.
// Amortized self-appends are accepted statically because the dynamic
// ReportAllocs pins still guard their steady-state capacity.
//
// The check is intraprocedural: a hotpath function calling an
// unannotated allocating helper is not reported — annotate the helper.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"remspan/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "reject allocating constructs in //remspan:hotpath functions",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	dirs := analysis.ScanDirectives(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !dirs.Func(fd, analysis.DirHotpath) {
				continue
			}
			check(pass, dirs, fd)
		}
	}
	return nil, nil
}

type span struct{ pos, end token.Pos }

type checker struct {
	pass            *analysis.Pass
	cold            []span // //remspan:coldpath statement subtrees
	lits            []*ast.FuncLit
	decl            *ast.FuncDecl
	allowedAppend   map[*ast.CallExpr]bool
	calledSelectors map[*ast.SelectorExpr]bool
	directCalled    map[*ast.FuncLit]bool       // func(){...}() — never materialized
	litVar          map[*ast.FuncLit]*types.Var // local var a lit is bound to
	escapedVar      map[*types.Var]bool         // lit var used other than as callee
}

// check reports the allocating constructs of fd's body, nested
// function literals included, outside //remspan:coldpath subtrees.
func check(pass *analysis.Pass, dirs *analysis.Directives, fd *ast.FuncDecl) {
	c := &checker{
		pass:            pass,
		decl:            fd,
		allowedAppend:   make(map[*ast.CallExpr]bool),
		calledSelectors: make(map[*ast.SelectorExpr]bool),
		directCalled:    make(map[*ast.FuncLit]bool),
		litVar:          make(map[*ast.FuncLit]*types.Var),
		escapedVar:      make(map[*types.Var]bool),
	}

	// Pre-pass: record coldpath subtrees, function literals (for
	// innermost-return signature lookup), invoked selectors (to tell
	// method values from method calls), the self-append call sites the
	// amortized idiom allows, and how each function literal is used
	// (only literals that escape materialize a heap closure).
	callFunIdents := make(map[*ast.Ident]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case ast.Stmt:
			if dirs.At(n.Pos(), analysis.DirColdpath) {
				c.cold = append(c.cold, span{n.Pos(), n.End()})
			}
			if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
				for i, rhs := range as.Rhs {
					if call, ok := rhs.(*ast.CallExpr); ok && c.isBuiltin(call, "append") && len(call.Args) > 0 {
						if c.isSelfAppend(as.Lhs[i], call.Args[0]) {
							c.allowedAppend[call] = true
						}
					}
					if lit, ok := rhs.(*ast.FuncLit); ok && as.Tok == token.DEFINE {
						if id, ok := as.Lhs[i].(*ast.Ident); ok {
							if v, ok := c.pass.TypesInfo.Defs[id].(*types.Var); ok {
								c.litVar[lit] = v
							}
						}
					}
				}
			}
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.SelectorExpr:
				c.calledSelectors[fun] = true
			case *ast.FuncLit:
				c.directCalled[fun] = true
			case *ast.Ident:
				callFunIdents[fun] = true
			}
		case *ast.FuncLit:
			c.lits = append(c.lits, n)
		}
		return true
	})
	// A literal bound to a local that is only ever the callee stays on
	// the stack; any other use of that variable lets it escape.
	boundVars := make(map[*types.Var]bool, len(c.litVar))
	for _, v := range c.litVar {
		boundVars[v] = true
	}
	if len(boundVars) > 0 {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || callFunIdents[id] {
				return true
			}
			if v, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok && boundVars[v] {
				c.escapedVar[v] = true
			}
			return true
		})
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if _, ok := n.(ast.Stmt); ok && c.inCold(n.Pos()) {
			return false
		}
		// panic is terminal: the statement never runs on the steady
		// state, so its message construction is exempt wholesale.
		if call, ok := n.(*ast.CallExpr); ok && c.isBuiltin(call, "panic") {
			return false
		}
		c.node(n)
		return true
	})
}

// isSelfAppend reports the amortized reuse idioms
// s = append(s, ...) and s = append(s[:k], ...): the destination
// already owns the backing array, so the steady state does not grow.
func (c *checker) isSelfAppend(lhs, arg0 ast.Expr) bool {
	if types.ExprString(lhs) == types.ExprString(arg0) {
		return true
	}
	if sl, ok := ast.Unparen(arg0).(*ast.SliceExpr); ok {
		return types.ExprString(lhs) == types.ExprString(sl.X)
	}
	return false
}

func (c *checker) inCold(pos token.Pos) bool {
	for _, s := range c.cold {
		if s.pos <= pos && pos < s.end {
			return true
		}
	}
	return false
}

func (c *checker) report(pos token.Pos, format string, args ...interface{}) {
	if c.inCold(pos) {
		return
	}
	c.pass.Reportf(pos, format, args...)
}

func (c *checker) typeOf(e ast.Expr) types.Type {
	if tv, ok := c.pass.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isBuiltin reports whether call invokes the named builtin.
func (c *checker) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = c.pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

func (c *checker) node(n ast.Node) {
	switch n := n.(type) {
	case *ast.CallExpr:
		c.call(n)
	case *ast.CompositeLit:
		switch c.underlying(n).(type) {
		case *types.Slice:
			c.report(n.Pos(), "slice literal allocates in hot path")
		case *types.Map:
			c.report(n.Pos(), "map literal allocates in hot path")
		}
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				c.report(n.Pos(), "pointer composite literal allocates in hot path")
			}
		}
	case *ast.FuncLit:
		c.capture(n)
	case *ast.SelectorExpr:
		c.methodValue(n)
	case *ast.BinaryExpr:
		if n.Op == token.ADD && c.isString(n) && !c.isConst(n) {
			c.report(n.Pos(), "string concatenation allocates in hot path")
		}
	case *ast.AssignStmt:
		c.assign(n)
	case *ast.ValueSpec:
		c.valueSpec(n)
	case *ast.ReturnStmt:
		c.returnStmt(n)
	}
}

func (c *checker) underlying(e ast.Expr) types.Type {
	t := c.typeOf(e)
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func (c *checker) isString(e ast.Expr) bool {
	b, ok := c.underlying(e).(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func (c *checker) isConst(e ast.Expr) bool {
	tv, ok := c.pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

func (c *checker) call(call *ast.CallExpr) {
	info := c.pass.TypesInfo
	// Conversions: T(x).
	if tv, ok := info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() && len(call.Args) == 1 {
		c.conversion(call, tv.Type, call.Args[0])
		return
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := info.Uses[id].(*types.Builtin); isB {
			switch id.Name {
			case "make":
				c.report(call.Pos(), "make allocates in hot path")
			case "new":
				c.report(call.Pos(), "new allocates in hot path")
			case "append":
				if !c.allowedAppend[call] {
					c.report(call.Pos(), "append outside the s = append(s, ...) self-append idiom may grow a fresh allocation in hot path")
				}
			}
			return
		}
	}
	// fmt calls.
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		c.report(call.Pos(), "fmt.%s call allocates in hot path", fn.Name())
	}
	// Interface boxing at argument positions.
	sigT, ok := c.underlying(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sigT.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sigT.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type() // passing the slice through: no boxing
				if i == params.Len()-1 {
					continue
				}
			} else {
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		c.boxing(arg, pt, "argument")
	}
}

// conversion flags allocating conversions: boxing into an interface
// and string<->[]byte/[]rune copies.
func (c *checker) conversion(call *ast.CallExpr, to types.Type, arg ast.Expr) {
	c.boxing(arg, to, "conversion")
	from := c.typeOf(arg)
	if from == nil {
		return
	}
	if isStringType(to) && isByteOrRuneSlice(from) || isByteOrRuneSlice(to) && isStringType(from) {
		c.report(call.Pos(), "string/slice conversion copies and allocates in hot path")
	}
}

// boxing reports a non-pointer-shaped concrete value reaching an
// interface-typed slot.
func (c *checker) boxing(arg ast.Expr, target types.Type, what string) {
	if target == nil || !types.IsInterface(target.Underlying()) {
		return
	}
	tv, ok := c.pass.TypesInfo.Types[arg]
	if !ok || tv.Type == nil {
		return
	}
	at := tv.Type
	if tv.IsNil() || types.IsInterface(at.Underlying()) || pointerShaped(at) {
		return
	}
	c.report(arg.Pos(), "interface boxing of %s at %s allocates in hot path", at, what)
}

// capture reports a function literal that closes over enclosing
// variables AND escapes. A literal that is invoked in place, or bound
// to a local used only as a callee, keeps its closure header on the
// stack and allocates nothing.
func (c *checker) capture(lit *ast.FuncLit) {
	if c.directCalled[lit] {
		return
	}
	if v, ok := c.litVar[lit]; ok && !c.escapedVar[v] {
		return
	}
	info := c.pass.TypesInfo
	pkgScope := c.pass.Pkg.Scope()
	reported := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Parent() == nil || v.Parent() == pkgScope || v.Parent() == types.Universe {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			c.report(lit.Pos(), "closure captures %s: closure allocates in hot path", v.Name())
			reported = true
		}
		return true
	})
}

// methodValue reports x.M used as a value (not called): binding the
// receiver allocates.
func (c *checker) methodValue(sel *ast.SelectorExpr) {
	s, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return
	}
	// Only flag when the selector is the value itself, not the callee
	// of a call. Calls are recognized by the parent; absent parent
	// links, check that the selector's type is a signature AND it is
	// not immediately invoked — conservatively approximated by looking
	// it up in the recorded call sites.
	if c.calledSelectors[sel] {
		return
	}
	c.report(sel.Pos(), "method value %s.%s allocates its receiver binding in hot path", types.ExprString(sel.X), sel.Sel.Name)
}

// assign flags interface boxing (and += string growth) on assignment.
func (c *checker) assign(as *ast.AssignStmt) {
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 && c.isString(as.Lhs[0]) {
		c.report(as.Pos(), "string concatenation allocates in hot path")
		return
	}
	if as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		c.boxing(as.Rhs[i], c.typeOf(lhs), "assignment")
	}
}

// valueSpec flags interface boxing in var declarations with an
// explicit interface type.
func (c *checker) valueSpec(vs *ast.ValueSpec) {
	if vs.Type == nil || len(vs.Values) == 0 {
		return
	}
	t := c.typeOf(vs.Type)
	for _, v := range vs.Values {
		c.boxing(v, t, "declaration")
	}
}

// returnStmt flags interface boxing at return, against the innermost
// enclosing function literal's results (or the declaration's).
func (c *checker) returnStmt(ret *ast.ReturnStmt) {
	results := c.resultsAt(ret.Pos())
	if results == nil || len(ret.Results) != results.Len() {
		return // bare return, or a single multi-value call: nothing to box here
	}
	for i, r := range ret.Results {
		c.boxing(r, results.At(i).Type(), "return")
	}
}

// resultsAt returns the result tuple of the innermost function
// enclosing pos.
func (c *checker) resultsAt(pos token.Pos) *types.Tuple {
	var best *ast.FuncLit
	for _, lit := range c.lits {
		if lit.Pos() <= pos && pos < lit.End() {
			if best == nil || lit.Pos() > best.Pos() {
				best = lit
			}
		}
	}
	var sigT types.Type
	if best != nil {
		sigT = c.typeOf(best)
	} else if obj, ok := c.pass.TypesInfo.Defs[c.decl.Name]; ok {
		sigT = obj.Type()
	}
	if sigT == nil {
		return nil
	}
	if sig, ok := sigT.Underlying().(*types.Signature); ok {
		return sig.Results()
	}
	return nil
}

// calleeFunc resolves the statically known *types.Func a call invokes,
// or nil (indirect calls through func values).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// pointerShaped reports whether boxing a value of type t into an
// interface stores the value in the iface data word directly: pointers,
// channels, maps, funcs, and unsafe.Pointer do not allocate.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
