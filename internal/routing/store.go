package routing

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"remspan/internal/dynamic"
	"remspan/internal/graph"
)

// Store is the concurrent forwarding plane: an epoch-swapped
// (RCU-style) table store over a dynamic.Maintainer. One writer
// applies churn batches — the maintainer repairs its trees, the store
// mirrors the spanner incrementally and rebuilds only the dirty-ball
// owners' Next/Dist rows on the word-parallel builder — and publishes
// the result as a new immutable epoch with a single atomic pointer
// swap. Any number of concurrent readers serve NextHop/Dist/Route
// lookups lock-free from whichever epoch they entered, unperturbed by
// in-flight batches (race-pinned by TestStoreConcurrentReaders).
//
// Rows are built on the store's own table env (a sched.Env with one
// builder per worker), on the path the cold build uses: the dirty
// owners in ball-clustered groups of 64, spread over sched.Workers
// workers. The cold build, RebuildAll and every batch share that path,
// and the rows are bit-identical at every GOMAXPROCS
// (TestStorePublishWidths).
//
// Reclamation is reader-announced: every Reader publishes the epoch
// seq it is inside (or idle) in a private atomic slot, and the writer
// recycles an epoch's replaced rows only once every announced seq has
// moved past it — so warm ticks with prompt readers allocate nothing
// (pinned by TestStoreApplyBatchZeroAlloc), and a stalled reader
// degrades the store to fresh allocations, never to a torn read.
//
// Staleness contract (DESIGN.md §3e). A churn batch rebuilds exactly
// the owners whose radius-R ball the batch touched — the same locality
// set whose trees the maintainer rebuilds — plus any owners readers
// reported stale. Those rows are exact for the post-batch graph and
// spanner. Other owners keep rows computed against the previous
// spanner: every next hop they name was a physical link when built,
// so a route through them either still works (possibly at slightly
// stale believed distances) or trips a vanished link, which
// Reader.RouteOn reports as RouteStaleLink — distinguished by type
// from RouteUnreachable — and queues the offending owner for rebuild
// in the next batch (re-resolution off the hot path). RebuildAll
// restores global exactness on demand.
type Store struct {
	m   *dynamic.Maintainer
	n   int
	env tableEnv // the store's own batched-build env (builders per worker); mu serializes its runs
	h   *SpannerMirror

	cur atomic.Pointer[Epoch] //remspan:atomic

	mu sync.Mutex // serializes writers (ApplyBatch, RebuildAll)

	readersMu sync.Mutex
	readers   []*Reader

	// Reader-reported stale owners, drained into the next batch's
	// rebuild set.
	stale      []atomic.Uint32 //remspan:atomic
	staleDirty atomic.Bool     //remspan:atomic

	// Retirement queue and buffer pools (writer-owned, under mu).
	retired  []retiredEpoch
	epPool   []*Epoch
	rowPool  [][]int32
	rowsPool [][][]int32

	dirtyBuf []int32
}

// Epoch is one published table set. Tables and their rows must not be
// mutated by consumers, and they stay valid only while the epoch is
// pinned: Reader operations pin automatically; any other holder (a
// bare Store.Epoch() caller) must not apply further churn batches
// while reading, or the buffers may be recycled under it. The seq is
// atomic because a reader entering an epoch can race a writer
// restamping a recycled Epoch struct — the reader then announces
// either value and re-checks the current pointer, both outcomes safe.
type Epoch struct {
	seq    atomic.Uint64 //remspan:atomic
	tables []Table
}

// Seq returns the epoch's sequence number (1 is the cold build).
func (e *Epoch) Seq() uint64 { return e.seq.Load() }

// Tables returns the epoch's per-owner tables (shared, read-only;
// see the Epoch pinning contract).
func (e *Epoch) Tables() []Table { return e.tables }

// retiredEpoch holds buffers unreachable from epoch seq onward,
// recyclable once every active reader has announced seq or newer.
type retiredEpoch struct {
	seq  uint64
	ep   *Epoch
	rows [][]int32
}

// idleSeq marks a Reader outside any epoch.
const idleSeq = math.MaxUint64

// maxRetired bounds the writer's explicit retirement queue. A stalled
// reader pins its epoch and everything retired after it, so without a
// cap one leaked reader would grow st.retired without bound. Past the
// cap the writer stops holding the oldest entries for pooling and
// drops them to the garbage collector instead: whatever the stalled
// reader still reaches through its pinned epoch stays alive via that
// reference, everything else is collected — reclamation degrades to
// fresh allocations, never to unbounded writer-side retention
// (pinned by TestStoreReclamationUnderReaderStall).
const maxRetired = 32

// NewStore builds the cold-start forwarding plane over m: the full
// table set on the word-parallel builder, published as epoch 1. The
// store owns the maintainer's churn feed from here on — apply changes
// through Store.ApplyBatch, not the maintainer directly, so tables and
// spanner stay in lockstep.
func NewStore(m *dynamic.Maintainer) *Store {
	n := m.Graph().N()
	st := &Store{
		m:        m,
		n:        n,
		h:        NewSpannerMirror(n),
		stale:    make([]atomic.Uint32, (n+31)/32),
		dirtyBuf: make([]int32, 0, 256),
	}
	for u := 0; u < n; u++ {
		st.h.UpdateTree(u, m.TreeOf(u))
	}
	st.h.Freeze()
	tables := NewTables(n)
	st.env.build(m.View(), st.h.View(), tables, nil)
	ep := &Epoch{tables: tables}
	ep.seq.Store(1)
	st.cur.Store(ep)
	return st
}

// Maintainer returns the wrapped maintainer (reads only; churn goes
// through Store.ApplyBatch).
func (st *Store) Maintainer() *dynamic.Maintainer { return st.m }

// DirtyOwners returns the owners whose rows the last ApplyBatch or
// RebuildAll rebuilt (sorted, unique) — exactly the rows a downstream
// replicator must re-ship to keep a remote copy in lockstep. The slice
// is writer-owned scratch: read it before the next batch, do not
// retain it. Empty when the last batch changed nothing.
func (st *Store) DirtyOwners() []int32 { return st.dirtyBuf }

// Epoch returns the current published epoch. The contents are
// read-only and remain stable only under the Epoch pinning contract —
// concurrent consumers must go through a Reader instead.
func (st *Store) Epoch() *Epoch { return st.cur.Load() }

// ApplyBatch applies one churn batch: the maintainer patches the graph
// and repairs its trees, the spanner mirror absorbs the changed trees,
// and the dirty-ball owners' tables — plus any reader-reported stale
// owners — are rebuilt on the word-parallel builder and published as a
// new epoch, off the readers' hot path. Returns the number of changes
// that had an effect.
//
//remspan:hotpath
func (st *Store) ApplyBatch(changes []dynamic.Change) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	applied := st.m.ApplyBatch(changes)
	var dirty []int32
	if applied > 0 {
		dirty = st.m.DirtyRoots()
	}
	st.dirtyBuf = append(st.dirtyBuf[:0], dirty...)
	st.drainStale()
	if len(st.dirtyBuf) == 0 {
		return applied
	}
	for _, r := range dirty {
		st.h.UpdateTree(int(r), st.m.TreeOf(int(r)))
	}
	if len(st.dirtyBuf) > len(dirty) { // stale marks joined: sort + dedupe
		slices.Sort(st.dirtyBuf)
		st.dirtyBuf = slices.Compact(st.dirtyBuf)
	}
	st.publish(st.dirtyBuf)
	return applied
}

// RebuildAll discards the bounded-staleness state and rebuilds every
// owner's table against the current graph and spanner, publishing the
// result as a new epoch (the periodic resync escape hatch; exact but
// O(n·m/64), so off any per-tick path).
func (st *Store) RebuildAll() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.dirtyBuf = st.dirtyBuf[:0]
	for u := 0; u < st.n; u++ {
		st.dirtyBuf = append(st.dirtyBuf, int32(u))
	}
	st.drainStale() // owners already all queued; just clear the marks
	st.dirtyBuf = st.dirtyBuf[:st.n]
	st.publish(st.dirtyBuf)
}

// MarkStale queues owner u for table rebuild in the next batch.
// Callable from any goroutine; Reader.RouteOn calls it on every
// RouteStaleLink detection.
func (st *Store) MarkStale(u int) {
	w := &st.stale[u>>5]
	bit := uint32(1) << uint(u&31)
	for {
		old := w.Load()
		if old&bit != 0 {
			break
		}
		if w.CompareAndSwap(old, old|bit) {
			break
		}
	}
	st.staleDirty.Store(true)
}

// drainStale appends the marked owners to dirtyBuf and clears the
// marks.
func (st *Store) drainStale() {
	if !st.staleDirty.Swap(false) {
		return
	}
	for wi := range st.stale {
		v := st.stale[wi].Swap(0)
		for ; v != 0; v &= v - 1 {
			st.dirtyBuf = append(st.dirtyBuf, int32(wi<<5|bits.TrailingZeros32(v)))
		}
	}
}

// publish rebuilds the given owners' rows (sorted, unique) into a new
// epoch and swaps it in. The row bookkeeping is serial: each owner
// takes pooled rows and its old ones retire with the previous epoch.
// The rows are then built on the store's env — the cold build's path:
// ball-clustered 64-owner groups spread over sched workers.
//
//remspan:hotpath
func (st *Store) publish(owners []int32) {
	cur := st.cur.Load()
	st.reclaim()
	ep := st.takeEpoch()
	copy(ep.tables, cur.tables)
	ret := retiredEpoch{ep: cur, rows: st.takeRows()}
	for _, u := range owners {
		ret.rows = append(ret.rows, ep.tables[u].Next, ep.tables[u].Dist)
		ep.tables[u] = Table{Owner: int(u), Next: st.takeRow(), Dist: st.takeRow()}
	}
	st.env.build(st.m.View(), st.h.View(), ep.tables, owners)
	ep.seq.Store(cur.Seq() + 1)
	ret.seq = ep.Seq()
	st.cur.Store(ep)
	st.retired = append(st.retired, ret)
	if drop := len(st.retired) - maxRetired; drop > 0 {
		n := copy(st.retired, st.retired[drop:])
		for i := n; i < len(st.retired); i++ {
			st.retired[i] = retiredEpoch{} // release to GC, not to the pools
		}
		st.retired = st.retired[:n]
	}
}

// reclaim recycles retired buffers whose epochs every active reader
// has left.
func (st *Store) reclaim() {
	safe := st.minActiveSeq()
	k := 0
	for k < len(st.retired) && st.retired[k].seq <= safe {
		r := st.retired[k]
		st.epPool = append(st.epPool, r.ep)
		st.rowPool = append(st.rowPool, r.rows...)
		st.rowsPool = append(st.rowsPool, r.rows[:0])
		k++
	}
	if k > 0 {
		n := copy(st.retired, st.retired[k:])
		st.retired = st.retired[:n]
	}
}

// minActiveSeq returns the smallest epoch seq any reader is currently
// inside (idleSeq when all are idle): buffers retired at or before it
// are unreachable.
func (st *Store) minActiveSeq() uint64 {
	st.readersMu.Lock()
	defer st.readersMu.Unlock()
	min := uint64(idleSeq)
	for _, r := range st.readers {
		if s := r.seq.Load(); s < min {
			min = s
		}
	}
	return min
}

func (st *Store) takeEpoch() *Epoch {
	if k := len(st.epPool); k > 0 {
		ep := st.epPool[k-1]
		st.epPool = st.epPool[:k-1]
		return ep
	}
	return &Epoch{tables: make([]Table, st.n)} //remspan:coldpath pool miss; reclaim refills epPool in steady state
}

func (st *Store) takeRow() []int32 {
	if k := len(st.rowPool); k > 0 {
		r := st.rowPool[k-1]
		st.rowPool = st.rowPool[:k-1]
		return r
	}
	return make([]int32, st.n) //remspan:coldpath pool miss; reclaim refills rowPool in steady state
}

func (st *Store) takeRows() [][]int32 {
	if k := len(st.rowsPool); k > 0 {
		r := st.rowsPool[k-1]
		st.rowsPool = st.rowsPool[:k-1]
		return r
	}
	return make([][]int32, 0, 128) //remspan:coldpath pool miss; reclaim refills rowsPool in steady state
}

// Reader is one goroutine's lock-free handle on the store. Each
// concurrent consumer needs its own (a Reader is not safe for
// concurrent use with itself); creating one is cheap. Route results
// share the reader's path buffer — valid until its next call.
type Reader struct {
	st     *Store
	seq    atomic.Uint64 //remspan:atomic
	path   []int32
	closed bool     // guarded by st.readersMu
	_      [40]byte // keep hot writer scans off this reader's line
}

// NewReader registers and returns a reader handle. Call Close when a
// short-lived reader is done with the store, or its registration slot
// lives for the store's lifetime.
func (st *Store) NewReader() *Reader {
	r := &Reader{st: st, path: make([]int32, 0, 16)}
	r.seq.Store(idleSeq)
	st.readersMu.Lock()
	st.readers = append(st.readers, r)
	st.readersMu.Unlock()
	return r
}

// Close unregisters the reader so its slot no longer participates in
// reclamation scans. It must be called with no operation in flight,
// and the reader must not be used afterwards. Close is idempotent:
// double-closing (a deferred Close racing an explicit one in teardown
// paths) is a no-op, never a panic or a corrupted registry.
func (r *Reader) Close() {
	st := r.st
	st.readersMu.Lock()
	if !r.closed {
		r.closed = true
		for i, x := range st.readers {
			if x == r {
				st.readers[i] = st.readers[len(st.readers)-1]
				st.readers[len(st.readers)-1] = nil
				st.readers = st.readers[:len(st.readers)-1]
				break
			}
		}
	}
	st.readersMu.Unlock()
}

// enter pins the current epoch: announce, then re-check the pointer so
// the writer can never recycle an epoch between our load and our
// announcement.
func (r *Reader) enter() *Epoch {
	for {
		e := r.st.cur.Load()
		r.seq.Store(e.Seq())
		if r.st.cur.Load() == e {
			return e
		}
	}
}

// exit releases the pinned epoch.
func (r *Reader) exit() { r.seq.Store(idleSeq) }

// NextHop returns s's installed next hop toward t (-1 unreachable) in
// the current epoch.
func (r *Reader) NextHop(s, t int) int32 {
	ep := r.enter()
	defer r.exit() // release even on a bad-index panic: a reader parked
	// on an announced seq would block reclamation forever
	return ep.tables[s].Next[t]
}

// Dist returns s's believed distance to t in the current epoch
// (graph.Unreached when unknown).
func (r *Reader) Dist(s, t int) int32 {
	ep := r.enter()
	defer r.exit()
	return ep.tables[s].Dist[t]
}

// Route walks s→t hop by hop through one epoch's tables with no
// physical link validation: it delivers, reports RouteUnreachable, or
// trips the hop budget (RouteTrapped — possible only with a
// non-spanner advertisement, or transiently when the epoch mixes fresh
// and bounded-stale rows under churn). The Path is reader-owned, valid
// until the next call.
func (r *Reader) Route(s, t int) Route {
	ep := r.enter()
	defer r.exit()
	rt := tableRouteInto(ep.tables, nil, s, t, r.path)
	if rt.Path != nil {
		r.path = rt.Path // keep the grown buffer for the next walk
	}
	return rt
}

// RouteOn walks s→t validating every hop against the caller's physical
// view (the live network the epoch may trail behind). On a stale link
// it marks the offending owner for rebuild — the typed-reason contract
// that turns silent delivery failure into queued re-resolution — and
// retries once if the writer has already published a fresher epoch.
// The final attempt's result is returned either way.
func (r *Reader) RouteOn(phys graph.View, s, t int) Route {
	for attempt := 0; ; attempt++ {
		rt, seq := r.routeOn(phys, s, t)
		if rt.Reason != RouteStaleLink {
			return rt
		}
		r.st.MarkStale(int(rt.At))
		if attempt >= 1 || r.st.cur.Load().Seq() == seq {
			return rt // no fresher epoch yet (or the retry is spent); repair is queued
		}
	}
}

// routeOn runs one pinned validated walk and reports the epoch it ran
// against.
func (r *Reader) routeOn(phys graph.View, s, t int) (Route, uint64) {
	ep := r.enter()
	defer r.exit()
	rt := tableRouteInto(ep.tables, phys, s, t, r.path)
	if rt.Path != nil {
		r.path = rt.Path
	}
	return rt, ep.Seq()
}
