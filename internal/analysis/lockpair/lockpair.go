// Package lockpair enforces unlock-on-all-paths: every sync
// Lock/RLock — and every successful TryLock/TryRLock — acquired in a
// function must be released on every path out of it, either by a
// `defer mu.Unlock()` or by an explicit Unlock before each exit.
//
// Most sites it guards release explicitly, so an edit that adds an
// early exit leaks the lock. The batched judge's shard body
// (spanner.judgeEnv.shard) takes its result lock once per batch:
//
//	for b := lo; b < hi; b++ {
//		...
//		e.resMu.Lock()
//		if e.bu < 0 || cu < e.bu || (cu == e.bu && cv < e.bv) {
//			e.bu, e.bv, e.bdg = cu, cv, cdg
//		}
//		e.resMu.Unlock()
//	}
//
// Turning that if into an early `continue` skips the Unlock and the
// next batch deadlocks, which the tests see only as a timeout. A
// replica's applyDelta holds its mirror lock across a switch over
// change kinds; a `return` on an unknown kind leaks it and no test
// notices. The race detector sees neither: nothing races, the lock is
// just never released.
//
// The analysis is a structured walk of each function body (function
// literals are separate scopes), tracking the held-lock set keyed by
// the receiver expression's source text ("e.resMu", "st.readersMu"),
// with read locks tracked separately from write locks:
//
//   - mu.Lock()/RLock() adds the key; mu.Unlock()/RUnlock() removes
//     it; `defer mu.Unlock()` (directly or inside a deferred literal)
//     satisfies the key for the rest of the function;
//   - `if mu.TryLock() { ... }` holds the key in the then-branch;
//     `if !mu.TryLock() { ... }` holds it on the fall-through, and the
//     assigned form `ok := mu.TryLock(); if ok { ... }` resolves the
//     same way; a TryLock whose result is discarded is itself a
//     diagnostic (the successful case can never be unlocked);
//   - a return (or the function end) with a key still held is a leak,
//     reported with both the acquisition and the exit;
//   - the paths that meet after an if, switch, select or loop must
//     agree on what is held: a lock held on only some of them is
//     reported as divergence;
//   - a loop body is one iteration: a lock acquired in it must be
//     released by the end of the body or by a continue, and a break
//     carries its held set to the code after the loop, where it joins
//     the loop's other exits (labelled forms resolve to their loop).
//
// A function that intentionally returns holding a lock (a lock-handoff
// API) opts out with //remspan:lockheld on its declaration. goroutine
// bodies (`go func(){...}`) and nested literals are separate
// functions: locks they acquire are theirs to balance.
package lockpair

import (
	"go/ast"
	"go/token"
	"go/types"

	"remspan/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockpair",
	Doc:  "every Lock/successful-TryLock must reach an Unlock on all paths (defer or full return coverage)",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	dirs := analysis.ScanDirectives(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			exempt := dirs.Func(fd, analysis.DirLockHeld)
			checkFunc(pass, fd.Body, exempt)
			// Nested literals are separate lock scopes (the statement
			// walker never descends into them), exempted with their
			// enclosing declaration. Inspect keeps descending, so
			// literals inside literals each get their own scope too.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkFunc(pass, lit.Body, exempt)
				}
				return true
			})
		}
	}
	return nil, nil
}

// lockKey identifies one lock in one mode: the receiver expression's
// source text, plus the read/write side of an RWMutex.
type lockKey struct {
	recv string
	read bool
}

func (k lockKey) String() string {
	if k.read {
		return k.recv + " (read lock)"
	}
	return k.recv
}

// held maps the locks currently held to their acquisition positions.
type held map[lockKey]token.Pos

func (h held) clone() held {
	c := make(held, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

type checker struct {
	pass    *analysis.Pass
	tryVars map[*types.Var]lockKey // ok := mu.TryLock()
	exempt  bool                   // //remspan:lockheld: returning locked is the contract
	targets []*target              // enclosing loops, switches and selects, innermost last
}

// target is a statement that break, and for a loop continue, can
// leave: its label, the held set on entry, and the held sets of the
// breaks that jump past it.
type target struct {
	label  string
	loop   bool
	entry  held
	breaks []held
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt, exempt bool) {
	c := &checker{pass: pass, tryVars: make(map[*types.Var]lockKey), exempt: exempt}
	out := c.walkStmts(body.List, make(held))
	if exempt {
		return
	}
	for k, pos := range out {
		c.pass.Reportf(pos, "%s is locked here but still held when the function returns (no Unlock or defer on the fall-through path; //remspan:lockheld marks an intentional handoff)", k)
	}
}

// op classifies one sync lock call.
type op struct {
	key  lockKey
	kind int // opLock, opUnlock, opTry
}

const (
	opLock = iota
	opUnlock
	opTry
)

// lockOp resolves e as a call to a sync locking method and returns
// its classification. Only methods of package sync count (Mutex,
// RWMutex, and the Locker interface), so user-defined Lock methods
// with their own contracts stay out of scope.
func (c *checker) lockOp(e ast.Expr) (op, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return op{}, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return op{}, false
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return op{}, false
	}
	key := lockKey{recv: types.ExprString(sel.X)}
	switch fn.Name() {
	case "Lock":
		return op{key: key, kind: opLock}, true
	case "Unlock":
		return op{key: key, kind: opUnlock}, true
	case "TryLock":
		return op{key: key, kind: opTry}, true
	case "RLock":
		key.read = true
		return op{key: key, kind: opLock}, true
	case "RUnlock":
		key.read = true
		return op{key: key, kind: opUnlock}, true
	case "TryRLock":
		key.read = true
		return op{key: key, kind: opTry}, true
	}
	return op{}, false
}

// walkStmts threads the held set through a statement list, reporting
// leaks at exits, and returns the fall-through state: nil when control
// cannot fall out of the list (a return, panic, break or continue).
func (c *checker) walkStmts(stmts []ast.Stmt, h held) held {
	for _, s := range stmts {
		if h == nil {
			break
		}
		h = c.walkStmt(s, h)
	}
	return h
}

func (c *checker) walkStmt(s ast.Stmt, h held) held {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if isPanicky(s.X) {
			return nil
		}
		if o, ok := c.lockOp(s.X); ok {
			switch o.kind {
			case opLock:
				h[o.key] = s.Pos()
			case opUnlock:
				delete(h, o.key)
			case opTry:
				c.pass.Reportf(s.Pos(), "%s.TryLock result is discarded: a successful acquisition can never be released", o.key.recv)
			}
		}

	case *ast.DeferStmt:
		for _, k := range c.deferredUnlocks(s) {
			delete(h, k)
		}

	case *ast.AssignStmt:
		// ok := mu.TryLock() — remember the binding so a later
		// `if ok { ... }` resolves to the TryLock branch shape.
		if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
			if o, ok := c.lockOp(s.Rhs[0]); ok && o.kind == opTry {
				if id, isID := s.Lhs[0].(*ast.Ident); isID {
					if v, isVar := c.varOf(id); isVar {
						c.tryVars[v] = o.key
					}
				}
			}
		}

	case *ast.IfStmt:
		return c.walkIf(s, h)

	case *ast.ReturnStmt:
		if !c.exempt {
			for k, pos := range h {
				c.pass.Reportf(s.Pos(), "return while %s is still held (locked at %s): missing Unlock or defer on this path", k, c.pass.Fset.Position(pos))
			}
		}
		return nil

	case *ast.BranchStmt:
		c.jump(s, h)
		return nil

	case *ast.BlockStmt:
		return c.walkStmts(s.List, h)

	case *ast.LabeledStmt:
		return c.walkTarget(s.Stmt, h, s.Label.Name)

	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return c.walkTarget(s, h, "")

	case *ast.GoStmt:
		// A spawned goroutine is its own lock scope (its literal body
		// is checked as a separate function).
	}
	return h
}

// walkIf handles the TryLock conditional shapes and ordinary ifs,
// merging the branch fall-through states.
func (c *checker) walkIf(s *ast.IfStmt, h held) held {
	if s.Init != nil {
		h = c.walkStmt(s.Init, h)
	}

	thenH, elseH := h.clone(), h.clone()
	if key, onThen, ok := c.condTryLock(s.Cond); ok {
		if onThen {
			thenH[key] = s.Cond.Pos()
		} else {
			elseH[key] = s.Cond.Pos()
		}
	}

	thenOut := c.walkStmts(s.Body.List, thenH)
	elseOut := elseH
	switch e := s.Else.(type) {
	case *ast.BlockStmt:
		elseOut = c.walkStmts(e.List, elseH)
	case *ast.IfStmt:
		elseOut = c.walkIf(e, elseH)
	}
	return c.join("if", thenOut, elseOut)
}

// join merges the held sets of the paths that meet after a statement;
// nil entries are paths that never get there. Conditional locking must
// resolve before control flow joins, so a lock held on only some paths
// is reported at its acquisition. The result holds what every path
// holds, and is nil when no path arrives.
func (c *checker) join(stmt string, paths ...held) held {
	var live []held
	for _, p := range paths {
		if p != nil {
			live = append(live, p)
		}
	}
	if live == nil {
		return nil
	}
	out, split := make(held), make(map[lockKey]bool)
	for _, p := range live {
		for k, pos := range p {
			n := 0
			for _, q := range live {
				if _, ok := q[k]; ok {
					n++
				}
			}
			if n == len(live) {
				out[k] = pos
			} else if !split[k] {
				split[k] = true
				c.pass.Reportf(pos, "%s is held on only some paths after the enclosing %s: release it on every path or defer the Unlock", k, stmt)
			}
		}
	}
	return out
}

// condTryLock matches the conditional TryLock shapes: mu.TryLock(),
// !mu.TryLock(), a bound result variable, or its negation. onThen
// reports which branch holds the lock.
func (c *checker) condTryLock(cond ast.Expr) (lockKey, bool, bool) {
	cond = ast.Unparen(cond)
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		key, onThen, ok := c.condTryLock(u.X)
		return key, !onThen, ok
	}
	if o, ok := c.lockOp(cond); ok && o.kind == opTry {
		return o.key, true, true
	}
	if id, ok := cond.(*ast.Ident); ok {
		if v, isVar := c.varOf(id); isVar {
			if key, bound := c.tryVars[v]; bound {
				return key, true, true
			}
		}
	}
	return lockKey{}, false, false
}

// walkTarget walks a loop, switch or select with its label ("" when
// unlabelled); any other labelled statement is walked as it is. A
// loop body is one iteration, checked in isolation: what it acquires
// it must release by the end of the body or a continue, since a lock
// carried into the next pass deadlocks on it. The code after the
// statement joins the paths out of it: each break, each switch or
// select clause that falls through, and the entry state when the
// statement can finish without running a clause or iteration that
// leaves it (a loop with a condition or range may run zero times).
func (c *checker) walkTarget(s ast.Stmt, h held, label string) held {
	t := &target{label: label}
	var clauses []ast.Stmt
	exits, stmt := []held{h}, "switch"
	switch s := s.(type) {
	case *ast.ForStmt:
		if s.Init != nil {
			h = c.walkStmt(s.Init, h)
		}
		t.loop, clauses, exits, stmt = true, []ast.Stmt{s.Body}, []held{h}, "loop"
		if s.Cond == nil {
			exits = nil
		}
	case *ast.RangeStmt:
		t.loop, clauses, stmt = true, []ast.Stmt{s.Body}, "loop"
	case *ast.SwitchStmt:
		if s.Init != nil {
			h = c.walkStmt(s.Init, h)
		}
		clauses, exits = s.Body.List, []held{h}
	case *ast.TypeSwitchStmt:
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses, exits, stmt = s.Body.List, nil, "select"
	default:
		return c.walkStmt(s, h)
	}
	t.entry = h
	c.targets = append(c.targets, t)
	for _, cl := range clauses {
		switch cl := cl.(type) {
		case *ast.BlockStmt:
			c.endIteration(t, c.walkStmts(cl.List, h.clone()), token.NoPos)
		case *ast.CaseClause:
			if cl.List == nil {
				exits = exits[1:] // a default clause: some clause always runs
			}
			exits = append(exits, c.walkStmts(cl.Body, h.clone()))
		case *ast.CommClause:
			exits = append(exits, c.walkStmts(cl.Body, h.clone()))
		}
	}
	c.targets = c.targets[:len(c.targets)-1]
	return c.join(stmt, append(exits, t.breaks...)...)
}

// jump hands the held set at a branch statement to the statement it
// leaves: a break (or fallthrough) joins the code after its target,
// and a continue ends its loop's iteration. goto is not followed.
func (c *checker) jump(s *ast.BranchStmt, h held) {
	for i := len(c.targets) - 1; i >= 0; i-- {
		t := c.targets[i]
		if s.Label != nil && s.Label.Name != t.label {
			continue
		}
		switch {
		case s.Tok == token.CONTINUE && t.loop:
			c.endIteration(t, h, s.Pos())
			return
		case s.Tok == token.BREAK || s.Tok == token.FALLTHROUGH:
			t.breaks = append(t.breaks, h)
			return
		}
	}
}

// endIteration checks the held set at the end of one pass of loop t:
// at the close of the body, or at the continue at pos.
func (c *checker) endIteration(t *target, h held, at token.Pos) {
	for k, pos := range h {
		switch _, outer := t.entry[k]; {
		case outer:
		case at.IsValid():
			c.pass.Reportf(at, "continue while %s is still held (locked at %s): unlock it before the next iteration", k, c.pass.Fset.Position(pos))
		default:
			c.pass.Reportf(pos, "%s is locked inside a loop body without an Unlock in the same iteration", k)
		}
	}
}

// deferredUnlocks returns the keys a defer statement releases: a
// direct `defer mu.Unlock()`, or every Unlock inside a deferred
// function literal.
func (c *checker) deferredUnlocks(s *ast.DeferStmt) []lockKey {
	if o, ok := c.lockOp(s.Call); ok && o.kind == opUnlock {
		return []lockKey{o.key}
	}
	lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit)
	if !ok {
		return nil
	}
	var keys []lockKey
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if o, ok := c.lockOp(call); ok && o.kind == opUnlock {
				keys = append(keys, o.key)
			}
		}
		return true
	})
	return keys
}

func (c *checker) varOf(id *ast.Ident) (*types.Var, bool) {
	if v, ok := c.pass.TypesInfo.Defs[id].(*types.Var); ok {
		return v, true
	}
	if v, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok {
		return v, true
	}
	return nil, false
}

// isPanicky matches panic(...) and the conventional process-exit
// calls.
func isPanicky(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if pkg, ok := fun.X.(*ast.Ident); ok {
			full := pkg.Name + "." + fun.Sel.Name
			switch full {
			case "os.Exit", "log.Fatal", "log.Fatalf", "log.Fatalln":
				return true
			}
			switch fun.Sel.Name {
			case "Fatal", "Fatalf", "FailNow", "Skip", "Skipf", "SkipNow":
				return true // testing.TB-style terminators
			}
		}
	}
	return false
}
