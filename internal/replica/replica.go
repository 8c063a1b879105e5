package replica

import (
	"sync"
	"sync/atomic"

	"remspan/internal/dynamic"
	"remspan/internal/graph"
	"remspan/internal/routing"
)

// gapPatience is how many protocol ticks a replica tolerates a missing
// sequence number (waiting for a reordered delta to arrive) before
// giving up and requesting a full resync.
const gapPatience = 3

// repState is one applied epoch on a replica: an immutable table set
// published through an atomic pointer. Every apply installs a fresh
// []Table header slice whose rows are immutable shipment-owned copies,
// so a query holding the previous state simply keeps it alive and the
// garbage collector reclaims it; no reader announcement is needed.
type repState struct {
	seq    uint64
	tables []routing.Table
}

// Replica is one read replica of the forwarding tier. The protocol
// side (Apply, Tick, Crash, Restart) is single-threaded — driven by
// the cluster loop — while the query side (AppliedSeq, NextHop, Dist,
// Route) is lock-free and safe for any number of concurrent callers,
// each reading whichever immutable epoch state is current when it
// loads the pointer (race-pinned by TestReplicaConcurrentQueries).
//
// Degraded-mode routing (RouteDegraded) walks the replica's own
// physical-graph mirror and a spanner derived from its shipped trees,
// under a mutex — the rare fallback path when the table tier is too
// stale — so it never races the protocol thread patching that state.
type Replica struct {
	ID int

	n     int
	state atomic.Pointer[repState] //remspan:atomic

	// Protocol state (cluster-loop-owned).
	applied uint64
	pending map[uint64]*Shipment
	gapAge  int
	wantFS  bool // full resync requested, not yet answered

	// Health flags, atomic because clients probe them concurrently
	// with the protocol thread flipping them.
	down  atomic.Bool //remspan:atomic
	stall atomic.Bool //remspan:atomic

	// Degraded-mode view (mirrorMu guards all of it against the
	// protocol thread; the table query path never touches it). trees
	// holds each owner's shipped tree by reference (shipment rows are
	// immutable); h, their union, is derived into union's storage on
	// the first degraded route after an apply, which sets it to nil.
	mirrorMu sync.Mutex
	phys     *graph.Graph
	trees    [][][2]int32
	union    graph.UnionScratch
	h        *graph.CSR

	// Applies counts successfully applied shipments (tests).
	Applies int
	// Resyncs counts full shipments installed (tests).
	Resyncs int
}

// NewReplica returns an empty (epoch-0) replica for an n-vertex
// network. It serves nothing until its first full shipment arrives.
func NewReplica(id, n int) *Replica {
	r := &Replica{
		ID:      id,
		n:       n,
		pending: make(map[uint64]*Shipment),
		phys:    graph.New(n),
		trees:   make([][][2]int32, n),
	}
	r.state.Store(&repState{})
	return r
}

// AppliedSeq returns the epoch the replica currently serves (0 =
// nothing applied yet). Lock-free.
func (r *Replica) AppliedSeq() uint64 { return r.state.Load().seq }

// Down reports whether the replica is crashed (the health signal a
// client's connection attempt would observe).
func (r *Replica) Down() bool { return r.down.Load() }

// Stalled reports whether the replica's read path is fault-injected
// slow — a client models this as a per-query deadline miss.
func (r *Replica) Stalled() bool { return r.stall.Load() }

// Apply ingests one shipment: full shipments install outright, deltas
// apply only in exact sequence — later deltas are buffered for the
// gap to fill, earlier ones are stale duplicates and dropped. Crashed
// replicas drop everything.
func (r *Replica) Apply(sh *Shipment) {
	if r.down.Load() {
		return
	}
	if sh.Kind == ShipFull {
		if sh.Seq <= r.applied {
			return // stale resync answer: we are already past it
		}
		r.installFull(sh)
		r.drainPending()
		return
	}
	switch {
	case sh.Seq <= r.applied:
		return // duplicate or already-covered delta
	case sh.Seq == r.applied+1:
		r.applyDelta(sh)
		r.drainPending()
	default:
		r.pending[sh.Seq] = sh // reordered: hold for the gap to fill
	}
}

// Tick advances the replica's protocol clock: a persistent gap ages
// toward a resync request. Returns true when the replica wants a full
// resync from the writer this tick.
func (r *Replica) Tick() bool {
	if r.down.Load() {
		return false
	}
	if r.wantFS {
		r.wantFS = false
		return true
	}
	if len(r.pending) > 0 {
		if _, ok := r.pending[r.applied+1]; !ok {
			r.gapAge++
			if r.gapAge > gapPatience {
				r.gapAge = 0
				clear(r.pending)
				return true
			}
			return false
		}
	}
	r.gapAge = 0
	return false
}

func (r *Replica) installFull(sh *Shipment) {
	tables := make([]routing.Table, r.n)
	phys := graph.New(r.n)
	for _, e := range sh.Edges {
		phys.AddEdge(int(e[0]), int(e[1]))
	}
	for i := range sh.Rows {
		row := &sh.Rows[i]
		tables[row.Owner] = routing.Table{Owner: int(row.Owner), Next: row.Next, Dist: row.Dist}
	}
	r.mirrorMu.Lock()
	r.phys = phys
	clear(r.trees)
	for i := range sh.Rows {
		r.trees[sh.Rows[i].Owner] = sh.Rows[i].Tree
	}
	r.h = nil
	r.mirrorMu.Unlock()
	r.applied = sh.Seq
	r.gapAge = 0
	r.Applies++
	r.Resyncs++
	// Drop any buffered delta the full state already covers.
	for seq := range r.pending {
		if seq <= sh.Seq {
			delete(r.pending, seq)
		}
	}
	r.state.Store(&repState{seq: sh.Seq, tables: tables})
}

// applyDelta allocates by design: the previous repState is still being
// read lock-free, so each shipment lands in a fresh tables slice and
// state struct, swapped in atomically — the zero-alloc contract is on
// the query path below, not here.
func (r *Replica) applyDelta(sh *Shipment) {
	cur := r.state.Load()
	tables := make([]routing.Table, r.n)
	copy(tables, cur.tables)
	for i := range sh.Rows {
		row := &sh.Rows[i]
		tables[row.Owner] = routing.Table{Owner: int(row.Owner), Next: row.Next, Dist: row.Dist}
	}
	r.mirrorMu.Lock()
	for _, c := range sh.Changes {
		switch c.Kind {
		case dynamic.AddEdge:
			r.phys.AddEdge(c.U, c.V)
		case dynamic.RemoveEdge:
			r.phys.RemoveEdge(c.U, c.V)
		}
	}
	for i := range sh.Rows {
		r.trees[sh.Rows[i].Owner] = sh.Rows[i].Tree
	}
	r.h = nil
	r.mirrorMu.Unlock()
	r.applied = sh.Seq
	r.Applies++
	r.state.Store(&repState{seq: sh.Seq, tables: tables})
}

func (r *Replica) drainPending() {
	for {
		sh, ok := r.pending[r.applied+1]
		if !ok {
			return
		}
		delete(r.pending, r.applied+1)
		r.applyDelta(sh)
	}
}

// NextHop returns s's next hop toward t in the replica's applied epoch
// (-1 when unreachable or nothing applied yet). Lock-free.
//
//remspan:hotpath
func (r *Replica) NextHop(s, t int) int32 {
	st := r.state.Load()
	if st.tables == nil {
		return -1
	}
	return st.tables[s].Next[t]
}

// Dist returns s's believed distance to t (graph.Unreached when
// unknown or nothing applied yet). Lock-free.
//
//remspan:hotpath
func (r *Replica) Dist(s, t int) int32 {
	st := r.state.Load()
	if st.tables == nil {
		return graph.Unreached
	}
	return st.tables[s].Dist[t]
}

// Route walks s→t through the applied epoch's tables into the
// caller-owned path buffer, returning the epoch it served from.
// Lock-free; an empty replica reports RouteUnreachable at s.
//
//remspan:hotpath
func (r *Replica) Route(s, t int, path []int32) (routing.Route, uint64) {
	st := r.state.Load()
	if st.tables == nil {
		return routing.Route{Reason: routing.RouteUnreachable, At: int32(s)}, 0
	}
	return routing.TableRouteInto(st.tables, nil, s, t, path), st.seq
}

// spanner returns H, the union of the replica's shipped trees, deriving
// it again when a shipment changed them since the last call: O(n +
// Σ|T_u|) on a degraded route after an apply, nothing on the protocol
// path. Callers hold mirrorMu.
func (r *Replica) spanner() *graph.CSR {
	if r.h == nil {
		r.h = r.union.CSR(r.n, r.trees...)
	}
	return r.h
}

// RouteDegraded serves s→t by greedy forwarding on the replica's own
// physical mirror and spanner — the fallback when no sufficiently
// fresh tables exist anywhere. A successful walk is reported with
// Reason RouteDegraded: a real route, but without the table tier's
// freshness guarantee. Takes the mirror mutex (rare path; safe
// against the protocol thread, not lock-free).
func (r *Replica) RouteDegraded(scr *routing.RouteScratch, s, t int) routing.Route {
	r.mirrorMu.Lock()
	rt := scr.GreedyRoute(r.phys, r.spanner(), s, t)
	r.mirrorMu.Unlock()
	if rt.OK {
		rt.Reason = routing.RouteDegraded
	}
	return rt
}
