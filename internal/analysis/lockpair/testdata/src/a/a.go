// Package a exercises lockpair: defer coverage, explicit
// unlock-before-every-return, the pooled-env TryLock fallback, and
// the leak shapes the analyzer must catch.
package a

import "sync"

type env struct {
	mu sync.Mutex
	n  int
}

type store struct {
	mu      sync.RWMutex
	readers []int
}

var shared = &env{}

func newEnv() *env { return &env{} }

// goodDefer is the canonical shape.
func goodDefer(e *env) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.n++
}

// goodExplicit releases on the straight line.
func goodExplicit(e *env) int {
	e.mu.Lock()
	v := e.n
	e.mu.Unlock()
	return v
}

// goodFallback is the pooled-env TryLock pattern from the scheduler
// call sites: both branches end holding exactly one lock, covered by
// the defer.
func goodFallback() *env {
	e := shared
	if !e.mu.TryLock() {
		e = newEnv()
		e.mu.Lock()
	}
	defer e.mu.Unlock()
	e.n++
	return e
}

// goodTryBound binds the TryLock result before branching.
func goodTryBound(e *env) {
	ok := e.mu.TryLock()
	if ok {
		e.n++
		e.mu.Unlock()
	}
}

// goodBothBranches unlocks on the early return and the fall-through.
func goodBothBranches(e *env, cond bool) int {
	e.mu.Lock()
	if cond {
		e.mu.Unlock()
		return 0
	}
	v := e.n
	e.mu.Unlock()
	return v
}

// goodDeferClosure releases through a deferred literal.
func goodDeferClosure(e *env) {
	e.mu.Lock()
	defer func() {
		e.n--
		e.mu.Unlock()
	}()
	e.n++
}

// goodRead pairs the read-side of the RWMutex.
func goodRead(s *store) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.readers)
}

// goodPanic may hold across a terminal panic.
func goodPanic(e *env, bad bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if bad {
		panic("invariant")
	}
}

// goodHandoff opts out: it returns holding the lock by contract.
//
//remspan:lockheld released by the paired finish() below
func goodHandoff(e *env) *env {
	e.mu.Lock()
	return e
}

func finish(e *env) { e.mu.Unlock() }

// badEarlyReturn leaks on the early path.
func badEarlyReturn(e *env, cond bool) int {
	e.mu.Lock()
	if cond {
		return 0 // want "return while e\\.mu is still held"
	}
	v := e.n
	e.mu.Unlock()
	return v
}

// badFallthrough never releases at all.
func badFallthrough(e *env) {
	e.mu.Lock() // want "e\\.mu is locked here but still held when the function returns"
	e.n++
}

// badTryBranch leaks the successful TryLock.
func badTryBranch(e *env) {
	if e.mu.TryLock() {
		e.n++
		return // want "return while e\\.mu is still held"
	}
}

// badFallback is the fallback pattern with the leak the issue calls
// out: an early return between the TryLock and the defer.
func badFallback(cond bool) *env {
	e := shared
	if !e.mu.TryLock() {
		e = newEnv()
		e.mu.Lock()
	}
	if cond {
		return nil // want "return while e\\.mu is still held"
	}
	defer e.mu.Unlock()
	return e
}

// badDiverge holds on only one side of the join.
func badDiverge(e *env, cond bool) {
	if cond {
		e.mu.Lock() // want "e\\.mu is held on only some paths after the enclosing if"
	}
	e.n++
}

// badDiscard drops a TryLock result on the floor.
func badDiscard(e *env) {
	e.mu.TryLock() // want "e\\.mu\\.TryLock result is discarded"
}

// badLoop acquires per-iteration without releasing.
func badLoop(e *env, n int) {
	for i := 0; i < n; i++ {
		e.mu.Lock() // want "e\\.mu is locked inside a loop body without an Unlock in the same iteration"
		e.n++
	}
}

// badReadLeak leaks the read side on a return.
func badReadLeak(s *store, cond bool) int {
	s.mu.RLock()
	if cond {
		return 0 // want "return while s\\.mu \\(read lock\\) is still held"
	}
	n := len(s.readers)
	s.mu.RUnlock()
	return n
}

// goodLoopBalanced locks and unlocks within each iteration.
func goodLoopBalanced(e *env, n int) {
	for i := 0; i < n; i++ {
		e.mu.Lock()
		e.n++
		e.mu.Unlock()
	}
}

// goodGoroutine: the literal is its own scope and balances itself.
func goodGoroutine(e *env) {
	go func() {
		e.mu.Lock()
		e.n++
		e.mu.Unlock()
	}()
}

// badGoroutine: the literal leaks in its own scope.
func badGoroutine(e *env) {
	go func() {
		e.mu.Lock() // want "e\\.mu is locked here but still held when the function returns"
		e.n++
	}()
}

// badContinue skips the Unlock: the next iteration deadlocks on it.
func badContinue(e *env, xs []int) {
	for _, x := range xs {
		e.mu.Lock()
		if x < 0 {
			continue // want "continue while e\\.mu is still held"
		}
		e.n += x
		e.mu.Unlock()
	}
}

// badBreak leaves the loop locked on one exit and unlocked on the
// other, and the function returns holding it.
func badBreak(e *env, xs []int) {
	for _, x := range xs {
		e.mu.Lock() // want "e\\.mu is held on only some paths after the enclosing loop"
		if x < 0 {
			break
		}
		e.n += x
		e.mu.Unlock()
	}
}

// badLabelled continues and breaks the outer loop from an inner one;
// the break leaves the outer loop locked on that exit only.
func badLabelled(e *env, xss [][]int) {
outer:
	for _, xs := range xss {
		for _, x := range xs {
			e.mu.Lock() // want "e\\.mu is held on only some paths after the enclosing loop"
			switch {
			case x < 0:
				continue outer // want "continue while e\\.mu is still held"
			case x == 0:
				break outer
			}
			e.mu.Unlock()
		}
	}
	e.n++
}

// goodContinue releases before skipping ahead.
func goodContinue(e *env, xs []int) {
	for _, x := range xs {
		e.mu.Lock()
		if x < 0 {
			e.mu.Unlock()
			continue
		}
		e.n += x
		e.mu.Unlock()
	}
}

// goodBreakThenUnlock leaves a condition-less loop only by the break,
// holding the lock, and releases it after the loop.
func goodBreakThenUnlock(e *env) {
	for {
		e.mu.Lock()
		if e.n > 10 {
			break
		}
		e.n++
		e.mu.Unlock()
	}
	e.mu.Unlock()
}

// badSwitchBreak breaks out of a case with the lock held.
func badSwitchBreak(e *env, k int) {
	switch k {
	case 0:
		e.mu.Lock() // want "e\\.mu is held on only some paths after the enclosing switch"
		if e.n > 0 {
			break
		}
		e.mu.Unlock()
	}
}

// goodSwitchAllLock locks in every clause, default included, so the
// paths agree after the switch.
func goodSwitchAllLock(e, f *env, k int) {
	switch k {
	case 0:
		e.mu.Lock()
	default:
		e.mu.Lock()
	}
	defer e.mu.Unlock()
	f.n++
}
