package sched

import "sync"

// Env is a Pool plus one slot of per-worker state W per worker, kept
// across runs: the whole pooling environment of a fan-out. A call
// site readies Slots(width) before each run — grows a scratch to the
// graph, rebinds a per-snapshot accumulator, resets a sum — and its
// shard body reads Slot(w). The zero value is ready to use. An Env is
// not safe for concurrent use: its caller owns it for the whole run,
// through a struct lock or a Shared.
type Env[W any] struct {
	Pool
	slots []*W // one allocation per slot, so a slot never moves when the table grows
}

// Slots returns the first width worker slots, creating zero-valued
// ones past the widest run seen. A slot keeps its state across
// narrower and wider runs, and a warm call allocates nothing.
func (e *Env[W]) Slots(width int) []*W {
	for len(e.slots) < width {
		e.slots = append(e.slots, new(W)) //remspan:coldpath slots grow to the widest run seen, then are reused
	}
	return e.slots[:width]
}

// Slot returns worker w's slot. w must be below the width of the
// run's Slots call.
func (e *Env[W]) Slot(w int) *W { return e.slots[w] }

// RunHeavy is Run for items that are each a large unit of work — a
// tree rebuild, a 64-source batch sweep. Shards shrink to
// items/(width·stealShards), at least one item, instead of Run's
// vertex-grained floor, so a few hundred items still split into
// enough shards to steal.
func (p *Pool) RunHeavy(items, width int, body func(w, lo, hi int)) {
	span := items / (max(width, 1) * stealShards)
	p.RunSpan(items, width, max(span, 1), body)
}

// Shared is the shared-or-transient policy of a package-level pooled
// value: Acquire hands the one shared T to a single holder at a time,
// and a caller that finds it busy gets a fresh T instead, so pooling
// is a steady-state optimization and never a correctness dependency.
// The zero value is ready to use; T's zero value must be too.
type Shared[T any] struct {
	mu  sync.Mutex
	val T
}

// Acquire returns the shared value, held by the caller until Release,
// or a fresh transient one when another caller holds it.
//
//remspan:lockheld the shared value stays locked until the matching Release
func (s *Shared[T]) Acquire() *T {
	if s.mu.TryLock() {
		return &s.val
	}
	return new(T) //remspan:coldpath transient value for a concurrent caller; the shared one serves the steady state
}

// Release hands back a value Acquire returned. A transient value is
// simply dropped.
//
//remspan:lockheld releases the lock the matching Acquire took
func (s *Shared[T]) Release(v *T) {
	if v == &s.val {
		s.mu.Unlock()
	}
}
