package routing

import (
	"sync"
	"sync/atomic"

	"remspan/internal/dynamic"
	"remspan/internal/graph"
)

// Store is the forwarding plane of one writer: every owner's table
// over a dynamic.Maintainer, kept current under churn. ApplyBatch
// applies a churn batch — the maintainer repairs its trees, the store
// derives the spanner from them again — rebuilds the dirty-ball
// owners' Next/Dist rows in place on the word-parallel builder, and
// advances the epoch seq. The store keeps one table set; a consumer
// that needs the rows of an epoch after the next batch copies them
// out first, as replica.Writer does for its shipments.
//
// Rows are built on the store's own table env (a sched.Env with one
// builder per worker), on the path the cold build uses: the dirty
// owners in ball-clustered groups of 64, spread over sched.Workers
// workers. The cold build, RebuildAll and every batch share that path,
// and the rows are bit-identical at every GOMAXPROCS
// (TestStorePublishWidths). Warm batches allocate nothing
// (TestStoreApplyBatchZeroAlloc).
//
// Staleness contract (DESIGN.md §3e). A churn batch rebuilds exactly
// the owners whose radius-R ball the batch touched — the same locality
// set whose trees the maintainer rebuilds. Those rows are exact for
// the post-batch graph and spanner. Other owners keep rows computed
// against the previous spanner: every next hop they name was a
// physical link when built, so a route through them either still
// works (possibly at slightly stale believed distances) or trips a
// vanished link, which TableRoute reports as RouteStaleLink —
// distinguished by type from RouteUnreachable. RebuildAll restores
// global exactness on demand.
type Store struct {
	m     *dynamic.Maintainer
	env   tableEnv           // the store's own batched-build env (builders per worker); mu serializes its runs
	union graph.UnionScratch // H's storage, rebuilt from the maintainer's trees
	h     *graph.CSR         // H, derived after every batch that rebuilt a tree
	ep    Epoch

	mu sync.Mutex // serializes writers (ApplyBatch, RebuildAll)

	dirtyBuf []int32
}

// Epoch is the store's table set and its sequence number. Seq may be
// read from any goroutine. The rows behind Tables are rebuilt in place
// by the next ApplyBatch or RebuildAll, so read them only between
// batches, ordered with the writer (as replica.Writer does right after
// each batch), and never mutate them.
type Epoch struct {
	seq    atomic.Uint64 //remspan:atomic
	tables []Table
}

// Seq returns the epoch's sequence number: 1 is the cold build, and
// every batch that rebuilt rows, and every RebuildAll, adds one.
func (e *Epoch) Seq() uint64 { return e.seq.Load() }

// Tables returns the per-owner tables (store-owned, read-only; see the
// Epoch contract).
func (e *Epoch) Tables() []Table { return e.tables }

// NewStore builds the cold-start forwarding plane over m: the full
// table set on the word-parallel builder, as epoch 1. The store owns
// the maintainer's churn feed from here on — apply changes through
// Store.ApplyBatch, not the maintainer directly, so tables and spanner
// stay in lockstep.
func NewStore(m *dynamic.Maintainer) *Store {
	n := m.View().N()
	st := &Store{m: m, dirtyBuf: make([]int32, 0, 256)}
	st.h = st.union.CSR(n, m.Trees()...)
	st.ep.tables = NewTables(n)
	st.env.build(m.View(), st.h, st.ep.tables, nil)
	st.ep.seq.Store(1)
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

// Epoch returns the store's epoch (see the Epoch contract).
func (st *Store) Epoch() *Epoch { return &st.ep }

// ApplyBatch applies one churn batch: the maintainer patches the graph
// and repairs its trees, H is derived from the repaired trees in the
// store's pooled storage, and the dirty-ball owners' rows are rebuilt
// in place on the word-parallel builder; the epoch seq then advances.
// Returns the number of changes that had an effect.
//
//remspan:hotpath
func (st *Store) ApplyBatch(changes []dynamic.Change) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	applied := st.m.ApplyBatch(changes)
	st.dirtyBuf = st.dirtyBuf[:0]
	if applied == 0 {
		return 0
	}
	st.dirtyBuf = append(st.dirtyBuf, st.m.DirtyRoots()...)
	if len(st.dirtyBuf) == 0 {
		return applied
	}
	st.h = st.union.CSR(st.m.View().N(), st.m.Trees()...)
	st.env.build(st.m.View(), st.h, st.ep.tables, st.dirtyBuf)
	st.ep.seq.Add(1)
	return applied
}

// RebuildAll rebuilds every owner's table against the current graph
// and spanner and advances the epoch seq (the periodic resync escape
// hatch; exact but O(n·m/64), so off any per-tick path).
func (st *Store) RebuildAll() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.dirtyBuf = st.dirtyBuf[:0]
	for u := range st.ep.tables {
		st.dirtyBuf = append(st.dirtyBuf, int32(u))
	}
	st.env.build(st.m.View(), st.h, st.ep.tables, nil)
	st.ep.seq.Add(1)
}
