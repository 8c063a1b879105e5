// Package sched is the shared shard-parallel scheduling layer of the
// repository: one work-stealing worker pool behind every goroutine
// fan-out in the construction, verification, maintenance, simulation
// and forwarding pipelines (spanner, dynamic, distsim, routing).
//
// # Why shards, not a shared counter
//
// The fan-outs this package replaced handed items out one at a time
// from a single shared atomic counter. Every claim then bounced one
// cache line between every core — at n = 1M roots that ping-pong is
// the dominant cost of the distribution itself. Here the item range
// [0, n) is cut into contiguous vertex-range shards (spanFor: sized so
// the per-item caller state of a shard — a few int32 rows — stays
// cache-resident, with enough shards per worker to steal), the shard
// index space is block-partitioned across workers, and each worker
// claims shards from its own cache-line-padded cursor. Cursors are
// only contended during stealing at the tail of a run, so the
// steady-state claim is an uncontended atomic on a private line, and
// consecutive items of a shard walk adjacent caller state.
//
// # Work stealing
//
// Worker w owns the shard block [w·G/W, (w+1)·G/W). It drains its own
// block first; when empty it scans the other workers' cursors in ring
// order and claims from any block with shards left, through the same
// per-victim cursor. Claims are monotone per block (an over-claim past
// the block end is harmless and terminates the scan), so every shard
// is executed exactly once — the fuzz target pins coverage-exactly-
// once over adversarial (items, width, span) triples.
//
// # Per-worker scratch lifecycle
//
// Run's body receives the executing worker's index w < width. An Env
// pairs a Pool with one slot of per-worker state (domtree.Scratch,
// BitScratch, a table builder, EdgeMarks, …) per worker, kept across
// runs: acquire is Env.Slots(width), which grows the slot table to
// the widest run seen; reset is the call site's own rule over those
// slots, written inline before the run (grow a scratch to the graph,
// rebind a per-snapshot accumulator, zero a sum); the shard body
// reads Env.Slot(w); release is a no-op, because slots are retained.
// So steady-state fan-outs allocate nothing (testutil.PinAllocsAt pins
// the contract at the call sites). A package-level env is held
// through a Shared, which hands it to one caller at a time and gives a
// concurrent caller a fresh transient env; the TryLock behind that
// policy lives there and nowhere else.
//
// # Deterministic results under stealing
//
// Workers may execute shards in any interleaving, so a result must
// never depend on completion order. Three sanctioned shapes:
//
//   - Per-item slots: results[i] written by exactly one claim, which
//     commutes trivially (trees, table rows, tree sizes).
//   - Per-worker accumulators merged in ascending worker order after
//     the barrier, valid only when the merge is order-independent by
//     construction (integer-bucketed sums, set unions, max) — the
//     stretch-profile and edge-mark unions use this.
//   - A CAS-decreasing bound for the verification witness: every item
//     is claimed exactly once and the bound only moves down to a
//     recorded violation, so every item below the final bound is fully
//     processed and the lexicographically smallest witness is exact.
//
// A Pool is cheap: helper goroutines are spawned lazily on first
// parallel run and then park on a channel; each subsystem owns its
// pool (a shared pool would serialize independent subsystems, because
// Run is mutually exclusive per pool).
//
// # Pool lifetime
//
// A Pool needs no Close. Its helpers reach only the pool's core, a
// separate allocation, never the Pool itself, so a parked helper does
// not keep the Pool — or the struct it is embedded in — alive. A
// finalizer on a sentinel that only the Pool references closes the
// helpers' wake channels once the Pool is unreachable, and the helpers
// exit (pinned by TestPoolOwnerCollected).
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

const (
	// minSpan floors the automatic shard span: a claim (one atomic
	// add) must amortize over at least this many items, and one shard's
	// int32 caller state (4·minSpan bytes) still fits comfortably in L1.
	minSpan = 64
	// maxSpan caps the automatic span so huge ranges still split into
	// enough shards to steal (and an int32 row per item stays within a
	// few pages — the "cache-sized vertex range").
	maxSpan = 4096
	// stealShards is the target number of shards per worker block:
	// enough granularity for the tail-steal to rebalance a skewed
	// workload, few enough that claims stay rare.
	stealShards = 8
)

// Workers returns the worker count a fan-out over items should use:
// GOMAXPROCS clamped to the item count, at least 1. Call sites size
// their per-worker slots with it and pass it to Run; tests pin
// parallel == serial by sweeping GOMAXPROCS.
func Workers(items int) int {
	w := runtime.GOMAXPROCS(0)
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// spanFor returns the shard span Run uses for items over width
// workers: items/(width·stealShards) clamped to [minSpan, maxSpan],
// and to the whole range when width <= 1.
func spanFor(items, width int) int {
	if width <= 1 || items <= minSpan {
		if items < 1 {
			return 1
		}
		return items
	}
	span := items / (width * stealShards)
	if span < minSpan {
		span = minSpan
	}
	if span > maxSpan {
		span = maxSpan
	}
	return span
}

// cursor is one worker block's claim position, padded so neighboring
// cursors never share a cache line (the whole point of per-worker
// claims).
type cursor struct {
	pos atomic.Int64
	_   [56]byte
}

// Pool is a reusable work-stealing shard scheduler. The zero value is
// ready to use. Helper goroutines are spawned lazily up to the widest
// run seen and then park between runs; Run is mutually exclusive per
// pool (concurrent callers queue), so give independent subsystems
// independent pools. Dropping a Pool stops its helpers (see the
// package comment on pool lifetime).
type Pool struct {
	mu   sync.Mutex // serializes runs; guards helper spawning
	c    *core      // job and helpers, allocated on the first parallel run
	stop *stopper   // finalizer sentinel: reachable only through the Pool
}

// core is the part of a Pool its helper goroutines reach. It lives in
// its own allocation so that a parked helper pins the core, not the
// Pool or its owner.
type core struct {
	// Current job, written under Pool.mu before helpers are woken.
	body     func(w, lo, hi int)
	items    int
	span     int
	width    int
	cursors  []cursor
	blockEnd []int64

	wake []chan struct{} // helper i serves worker id i+1 when signaled
	wg   sync.WaitGroup
}

// stopper is the Pool's finalizer sentinel. Helpers never reach it, so
// it becomes unreachable together with the Pool; its finalizer then
// closes every wake channel and the parked helpers return.
type stopper struct{ c *core }

func (s *stopper) release() {
	for _, ch := range s.c.wake {
		close(ch)
	}
}

// Run executes body over the item range [0, items), partitioned into
// contiguous [lo, hi) shards (span chosen by spanFor), across width
// workers. body(w, lo, hi) runs on worker w in [0, width); the same w
// never runs two shards concurrently, so w safely indexes per-worker
// scratch. width <= 1 runs serially on the calling goroutine with no
// synchronization at all — the steady-state zero-allocation path.
func (p *Pool) Run(items, width int, body func(w, lo, hi int)) {
	p.RunSpan(items, width, spanFor(items, width), body)
}

// RunSpan is Run with an explicit shard span; RunHeavy is its sizing
// for items that are each a large unit of work.
func (p *Pool) RunSpan(items, width, span int, body func(w, lo, hi int)) {
	if items <= 0 {
		return
	}
	if span < 1 {
		span = 1
	}
	shards := (items + span - 1) / span
	if width > shards {
		width = shards
	}
	if width <= 1 {
		body(0, 0, items)
		return
	}
	p.mu.Lock()
	//remspan:coldpath the core and its sentinel are allocated once per pool, on its first parallel run
	if p.c == nil {
		p.c = &core{}
		p.stop = &stopper{c: p.c}
		runtime.SetFinalizer(p.stop, (*stopper).release)
	}
	p.c.run(items, width, span, shards, body)
	p.mu.Unlock() // p stays live past run, so the sentinel cannot be finalized mid-job
}

// run executes one parallel job; the caller holds Pool.mu.
func (c *core) run(items, width, span, shards int, body func(w, lo, hi int)) {
	c.body, c.items, c.span, c.width = body, items, span, width
	//remspan:coldpath cursor arrays grow to the widest width seen, then are reused
	if cap(c.cursors) < width {
		c.cursors = make([]cursor, width)
		c.blockEnd = make([]int64, width)
	}
	c.cursors = c.cursors[:width]
	c.blockEnd = c.blockEnd[:width]
	for w := 0; w < width; w++ {
		c.cursors[w].pos.Store(int64(w * shards / width))
		c.blockEnd[w] = int64((w + 1) * shards / width)
	}
	//remspan:coldpath helper goroutines spawn once per pool lifetime, then park between runs
	for len(c.wake) < width-1 {
		id := len(c.wake) + 1
		ch := make(chan struct{}, 1)
		c.wake = append(c.wake, ch)
		go c.serve(id, ch)
	}
	c.wg.Add(width - 1)
	for i := 0; i < width-1; i++ {
		c.wake[i] <- struct{}{}
	}
	c.work(0)
	c.wg.Wait()
	c.body = nil // release the closure between runs
}

// serve is a parked helper goroutine: each wake signal is one run it
// participates in as worker id. It returns when the stopper closes ch.
func (c *core) serve(id int, ch chan struct{}) {
	for range ch {
		if id < c.width {
			c.work(id)
		}
		c.wg.Done()
	}
}

// work drains worker w's own shard block, then steals from the other
// blocks in ring order until every cursor is exhausted.
//
//remspan:hotpath
func (c *core) work(w int) {
	c.drain(w, w)
	for off := 1; off < c.width; off++ {
		c.drain(w, (w+off)%c.width)
	}
}

// drain claims shards from block v's cursor until it passes the block
// end, running each on worker w. The load before the claim keeps
// finished blocks read-only (no cross-core invalidations while other
// workers scan past them).
//
//remspan:hotpath
func (c *core) drain(w, v int) {
	end := c.blockEnd[v]
	for c.cursors[v].pos.Load() < end {
		s := c.cursors[v].pos.Add(1) - 1
		if s >= end {
			return
		}
		lo := int(s) * c.span
		hi := lo + c.span
		if hi > c.items {
			hi = c.items
		}
		c.body(w, lo, hi)
	}
}
