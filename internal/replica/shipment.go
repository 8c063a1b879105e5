// Package replica implements the fault-tolerant replicated forwarding
// tier over routing.Store (DESIGN.md §3f): a single writer applies
// churn batches to the store and ships each new epoch — as an
// immutable dirty-owner row diff — to N read replicas
// through an injectable transport. Replicas apply shipments strictly
// in sequence (buffering reordered arrivals, requesting a full resync
// across gaps or after a crash) and serve NextHop/Dist/Route queries
// lock-free from their last applied epoch. A failover client routes
// queries across replicas by vertex-range affinity and epoch
// freshness, with capped exponential backoff, hedging past stalled
// replicas, stale-read SLO accounting, and a typed degraded mode —
// greedy routing on the replica's local spanner view — when no
// sufficiently fresh table is available. The deterministic
// fault-injection transport (faultinject.go) drops, delays, reorders
// and partitions shipments and crashes replicas mid-stream, so every
// recovery path is exercised by seeded, replayable chaos scenarios.
//
// Chaos runs replay bit-identically from a seed, so library code must
// stay off wall clocks, unseeded randomness, and map-ordered output.
//
//remspan:deterministic
package replica

import (
	"remspan/internal/dynamic"
	"remspan/internal/routing"
)

// ShipmentKind distinguishes incremental epoch diffs from full-state
// resyncs.
type ShipmentKind uint8

const (
	// ShipDelta carries one epoch's dirty-owner rows; applies only on
	// top of epoch Seq−1.
	ShipDelta ShipmentKind = iota
	// ShipFull carries the writer's complete state — every owner row,
	// every tree, the whole physical edge set — and applies on top of
	// anything (crash recovery, gap resync).
	ShipFull
)

// OwnerRow is one owner's shipped forwarding state: immutable copies
// of its Next/Dist rows plus its dominating tree (the replica keeps
// the tree by reference and derives its local spanner from the trees
// for degraded-mode routing). Rows are never mutated after assembly,
// so replicas of any epoch may share them.
type OwnerRow struct {
	Owner int32
	Next  []int32
	Dist  []int32
	Tree  [][2]int32
}

// Shipment is one immutable writer→replica state transfer. A delta
// brings a replica from epoch Seq−1 to Seq; a full shipment installs
// epoch Seq outright. Replicas and the transport never mutate one, so
// a single shipment fans out to every replica by reference.
type Shipment struct {
	Kind    ShipmentKind
	Seq     uint64           // store epoch this shipment brings a replica to
	Changes []dynamic.Change // the epoch's graph churn (delta) — replicas patch their physical mirror
	Edges   [][2]int32       // full physical edge set (full shipments only)
	Rows    []OwnerRow       // dirty owners (delta) or all owners (full)
}

// Words returns the shipment's approximate wire size in int32 words —
// the unit the distsim traffic accounting uses — so tests and benches
// can compare delta traffic against full-resync traffic.
func (s *Shipment) Words() int {
	w := 4 + 2*len(s.Changes) + 2*len(s.Edges)
	for i := range s.Rows {
		w += 1 + len(s.Rows[i].Next) + len(s.Rows[i].Dist) + 2*len(s.Rows[i].Tree)
	}
	return w
}

// Writer is the replication source: it owns the routing.Store, applies
// churn through it, and converts every new epoch into a delta Shipment
// fanned out to all replicas through the transport. The store rebuilds
// its rows in place on the next batch, so the writer copies the dirty
// rows into the shipment right after each ApplyBatch: shipments own
// their memory. When the store's epoch moved outside the writer — a
// RebuildAll, or a batch applied to the store directly — the writer
// cannot name the rows that changed, and its next new epoch ships full
// state to every replica instead of a delta.
type Writer struct {
	st      *routing.Store
	net     Network
	nrep    int
	lastSeq uint64

	// Shipping traffic accounting (delta vs full words).
	DeltaShipments int
	DeltaWords     int64
	FullShipments  int
	FullWords      int64
}

// NewWriter wraps an existing store (epoch ≥ 1 already published) and
// fans shipments out to nrep replicas (ids 0..nrep−1) through net.
// Replicas bootstrap via a full shipment: Bootstrap ships the current
// epoch to everyone.
func NewWriter(st *routing.Store, net Network, nrep int) *Writer {
	return &Writer{st: st, net: net, nrep: nrep, lastSeq: st.Epoch().Seq()}
}

// Seq returns the writer's current published epoch sequence.
func (w *Writer) Seq() uint64 { return w.st.Epoch().Seq() }

// Bootstrap ships the current full state to every replica (cold
// start; also the answer to any resync request).
func (w *Writer) Bootstrap() {
	full := w.fullShipment()
	for dst := 0; dst < w.nrep; dst++ {
		w.FullShipments++
		w.FullWords += int64(full.Words())
		w.net.Ship(dst, full)
	}
}

// ApplyBatch applies one churn batch to the store and, if the epoch
// moved, ships its dirty-owner diff to every replica — or full state,
// if the epoch had already moved outside the writer. Returns the
// number of changes that had an effect.
func (w *Writer) ApplyBatch(changes []dynamic.Change) int {
	outOfBand := w.st.Epoch().Seq() != w.lastSeq
	applied := w.st.ApplyBatch(changes)
	seq := w.st.Epoch().Seq()
	if seq == w.lastSeq {
		return applied // no new epoch: nothing to ship
	}
	w.lastSeq = seq
	if outOfBand {
		w.Bootstrap()
		return applied
	}
	owners := w.st.DirtyOwners()
	tables := w.st.Epoch().Tables()
	m := w.st.Maintainer()
	sh := &Shipment{
		Kind:    ShipDelta,
		Seq:     seq,
		Changes: append([]dynamic.Change(nil), changes...),
		Rows:    make([]OwnerRow, len(owners)),
	}
	for i, u := range owners {
		t := tables[u]
		sh.Rows[i] = OwnerRow{
			Owner: u,
			Next:  append([]int32(nil), t.Next...),
			Dist:  append([]int32(nil), t.Dist...),
			Tree:  append([][2]int32(nil), m.TreeOf(int(u))...),
		}
	}
	words := int64(sh.Words())
	for dst := 0; dst < w.nrep; dst++ {
		w.DeltaShipments++
		w.DeltaWords += words
		w.net.Ship(dst, sh)
	}
	return applied
}

// Resync answers a replica's resync request with a full shipment of
// the current state (through the same faulty transport — a partition
// delays recovery until it heals).
func (w *Writer) Resync(dst int) {
	full := w.fullShipment()
	w.FullShipments++
	w.FullWords += int64(full.Words())
	w.net.Ship(dst, full)
}

// fullShipment snapshots the writer's complete current state.
func (w *Writer) fullShipment() *Shipment {
	m := w.st.Maintainer()
	g := m.Graph()
	tables := w.st.Epoch().Tables()
	sh := &Shipment{
		Kind:  ShipFull,
		Seq:   w.st.Epoch().Seq(),
		Edges: g.Edges(),
		Rows:  make([]OwnerRow, g.N()),
	}
	for u := 0; u < g.N(); u++ {
		t := tables[u]
		sh.Rows[u] = OwnerRow{
			Owner: int32(u),
			Next:  append([]int32(nil), t.Next...),
			Dist:  append([]int32(nil), t.Dist...),
			Tree:  append([][2]int32(nil), m.TreeOf(u)...),
		}
	}
	return sh
}
