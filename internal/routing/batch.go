package routing

import (
	"fmt"
	"math/bits"

	"remspan/internal/graph"
	"remspan/internal/sched"
)

// Word-parallel table construction: 64 owners' Next/Dist rows per
// graph.BitScratch sweep.
//
// Distances use the star-decomposition identity of the verification
// engine (spanner.SweepViewBatch): H_u is H plus the star {u}×N_G(u),
// so seeding bit u at distance 0 on u, at distance 1 on every
// w ∈ N_G(u), and sweeping over H alone computes d_{H_u}(u, ·) exactly
// — no per-owner graph is ever materialized.
//
// Next hops ride the same sweep. The canonical rule (tables.go) makes
// a destination inherit the next hop of its smallest-id H-neighbor at
// the previous BFS level, and graph.BitScratch.SweepClaim delivers
// exactly that pairing for free: with the frontier expanded in
// ascending vertex-id order, the first expansion to land a source bit
// on v comes from the smallest-id previous-level neighbor carrying it,
// and the claim callback fires with that (x, v, bits) right inside the
// edge walk — no per-event H-row re-scan, and x's scratch row stays
// cache-hot across all of x's edges. So batched tables are
// bit-identical to a scalar per-owner BFS under the canonical rule on
// every input (pinned against the tests' scalar builder by
// TestBatchedTablesMatchScalar and FuzzTableEquivalence).
//
// Claims write into a flat transposed scratch of packed
// (next hop << 16) | level words — 64 entries per vertex, so one
// arrival event touches a handful of cache lines however many bits
// land at once and each claim is a single load + store, and the
// parent's entry is always final before any child reads it (level
// order). The claim phase is memory-latency-bound on the parent rows,
// so the words are uint32: next hop and level each take 16 bits, which
// bounds the engine to MaxN vertices — every table set is n² entries
// (NewTables), so a larger graph would need at least 34 GB of rows
// first. One scatter pass then streams the scratch into the owners'
// output rows, folding the unreached back-fill into the same store.
// Total work per 64-owner batch: O(m) mask operations for the sweep
// and the claim scans plus O(64·n) scratch and output writes, against
// the O(64·(n+m)) cache-missing scalar walks it replaces.
//
// Owners are grouped by graph.BatchOrderScratch.Order's ball
// clustering, not by id: a bit-packed sweep costs O(edges × distinct
// wavefront levels), so 64 scattered owners on a high-diameter graph
// would forfeit the word parallelism (see Order's doc). Every batched
// build — the full table set, a Store's cold build, its RebuildAll and
// each churn tick's dirty owners — runs through one tableEnv.build: the
// full-graph ball order, filtered down to the owners to rebuild, is cut
// into groups of 64 that sched workers take, one builder per worker.

// MaxN is the largest vertex count the table engine serves: next hop
// and BFS level each live in a 16-bit half of a packed word, so every
// vertex id and level in 0..n-1 must fit uint16 with the top id 0xffff
// left clear of the all-ones unreached fold. NewBatchBuilder and
// NewTables panic past it, and buildGroup re-checks per group, so ids
// are never silently truncated.
const MaxN = 0xffff

// checkN panics with a routing: message naming n when n exceeds MaxN.
func checkN(n int) {
	if n > MaxN {
		panic(fmt.Sprintf("routing: %d vertices exceed the table engine's limit of %d", n, MaxN))
	}
}

// BatchBuilder is the reusable engine of word-parallel table
// construction. All state resets through touched lists, so a warm
// builder constructs any number of table groups with zero allocations
// (pinned by TestBatchBuilderZeroAlloc). Not safe for concurrent use;
// parallel builds give each worker its own.
type BatchBuilder struct {
	bs *graph.BitScratch // masks-only: distances live in the packed scratch rows

	// Transposed packed rows: scr[v<<6|i] = next hop of owner bit i at
	// v << 16 | arrival level.
	scr []uint32

	claim func(x, v int32, newBits uint64, level int32)

	groupNext, groupDist [][]int32 // per-group row views (≤64 each)
}

// NewBatchBuilder returns a builder for graphs with up to n vertices;
// it panics when n exceeds MaxN. Footprint is O(64·n) words — one
// packed transposed 64-entry row per vertex — plus the masks-only bit
// scratch.
func NewBatchBuilder(n int) *BatchBuilder {
	checkN(n)
	b := &BatchBuilder{
		bs:        graph.NewBitScratchMasks(n),
		scr:       make([]uint32, n*64),
		groupNext: make([][]int32, 0, 64),
		groupDist: make([][]int32, 0, 64),
	}
	b.claim = b.claimEdge // bound once so sweeps are allocation-free when warm
	return b
}

// claimEdge is the SweepClaim callback: bits first arriving at v
// through (x, v) inherit x's next hops and record the arrival level, in
// one packed store per bit. x's row stays hot across all of x's edges
// (the callback fires mid-expansion).
//
//remspan:hotpath
func (b *BatchBuilder) claimEdge(x, v int32, newBits uint64, level int32) {
	base, xb := int(v)<<6, int(x)<<6
	lvl := uint32(uint16(level))
	scr := b.scr
	for bb := newBits; bb != 0; bb &= bb - 1 {
		i := bits.TrailingZeros64(bb)
		scr[base+i] = scr[xb+i]&^uint32(0xffff) | lvl
	}
}

// buildGroup constructs the tables of up to 64 owners in one sweep:
// next[i]/dist[i] receive owner owners[i]'s rows (each of length ≥ n,
// fully overwritten).
//
//remspan:hotpath
func (b *BatchBuilder) buildGroup(g graph.View, h *graph.CSR, owners []int32, next, dist [][]int32) {
	if len(owners) == 0 {
		return
	}
	if len(owners) > 64 {
		panic("routing: batch group exceeds 64 owners")
	}
	n := g.N()
	if n > MaxN {
		// Vertex ids past MaxN would be truncated to 16 bits; fail
		// loudly instead.
		panic("routing: half-width batch engine driven past 65535 vertices")
	}
	b.bs.Begin()
	for i, uu := range owners {
		u := int(uu)
		b.bs.Seed(uint(i), u, 0)
		b.scr[u<<6|i] = uint32(uint16(uu)) << 16
		for _, w := range g.Neighbors(u) {
			b.bs.SeedFrontier(uint(i), int(w), 1)
			b.scr[int(w)<<6|i] = uint32(uint16(w))<<16 | 1
		}
	}
	b.bs.SweepClaim(h, 2, b.claim)

	// Scatter: stream each vertex's packed scratch row into the owners'
	// output rows, folding the unreached back-fill into the same store
	// — for mask m = -1 (visited) the store unpacks the scratch word,
	// for m = 0 it is -1 == graph.Unreached.
	k := len(owners)
	full := ^uint64(0) >> uint(64-k)
	for v := 0; v < n; v++ {
		vis := b.bs.Visited(v)
		row := b.scr[v<<6 : v<<6+k : v<<6+k]
		if vis&full == full { // every owner reached v: plain unpack
			for i, w := range row {
				next[i][v] = int32(w >> 16)
				dist[i][v] = int32(w & 0xffff)
			}
			continue
		}
		for i, w := range row {
			m := -int32((vis >> uint(i)) & 1)
			next[i][v] = (int32(w>>16) & m) | ^m
			dist[i][v] = (int32(w&0xffff) & m) | ^m
		}
	}
}

// BuildInto constructs the tables of the given owners (any subset of
// 0..n-1, any order) into tables — indexed by owner id, rows pre-sized
// — in consecutive groups of up to 64 per sweep. Owners should arrive
// ball-clustered (graph.BatchOrderScratch.Order) or at least id-sorted:
// sweep cost grows with the spread of the group's wavefronts.
//
//remspan:hotpath
func (b *BatchBuilder) BuildInto(g graph.View, h *graph.CSR, tables []Table, owners []int32) {
	for start := 0; start < len(owners); start += 64 {
		end := start + 64
		if end > len(owners) {
			end = len(owners)
		}
		group := owners[start:end]
		b.groupNext = b.groupNext[:0]
		b.groupDist = b.groupDist[:0]
		for _, u := range group {
			tables[u].Owner = int(u)
			b.groupNext = append(b.groupNext, tables[u].Next)
			b.groupDist = append(b.groupDist, tables[u].Dist)
		}
		b.buildGroup(g, h, group, b.groupNext, b.groupDist)
	}
}

// BuildTablesBatched computes every router's table on the
// word-parallel engine — bit-identical to a scalar per-owner BFS, with
// the speedup measured by BenchmarkBuildTablesScalar/Batched — fanning
// ball-clustered 64-owner groups across a worker pool with one builder
// per worker.
func BuildTablesBatched(g graph.View, h *graph.CSR) []Table {
	out := NewTables(g.N())
	BuildTablesBatchedInto(g, h, out)
	return out
}

// tableWorker is one pooled worker slot of the batched table fan-out.
// The O(64·n) builder is the single most expensive scratch in the
// repo, so it is retained across calls and recreated only when the
// vertex count grows.
type tableWorker struct {
	n int
	b *BatchBuilder
}

// tableEnv is the reusable environment of the batched table fan-out:
// one builder slot per worker, the ball-clustering scratch and the
// per-run job the prebound shard body reads. Every batched build runs
// through one: each Store owns its own for its whole life (its writer
// lock serializes the runs), and BuildTablesBatchedInto borrows the
// package's shared one through a sched.Shared.
type tableEnv struct {
	sched.Env[tableWorker]
	order  graph.BatchOrderScratch
	pick   []uint64 // owners of the run as a bitmap, cleared after use
	picked []int32  // the run's owners in ball-clustered order

	// Per-run job.
	g      graph.View
	h      *graph.CSR
	tables []Table
	owners []int32

	body func(w, lo, hi int)
}

var sharedTableEnv sched.Shared[tableEnv]

// shard builds groups [lo, hi) — owners[64·lo : 64·hi] — on worker w's
// builder. Every owner sits in exactly one group, so each worker writes
// only its own owners' rows.
//
//remspan:hotpath
func (e *tableEnv) shard(w, lo, hi int) {
	lo, hi = lo*64, hi*64
	if hi > len(e.owners) {
		hi = len(e.owners)
	}
	e.Slot(w).b.BuildInto(e.g, e.h, e.tables, e.owners[lo:hi])
}

// cluster returns owners in graph.BatchOrderScratch.Order's
// ball-clustered order over g: the full-graph order filtered by an
// owner bitmap, O(n+m). Consecutive runs of 64 then come from a few
// neighbouring balls rather than from all over the graph, as id order
// would on a geometric graph.
func (e *tableEnv) cluster(g graph.View, owners []int32) []int32 {
	order, _ := e.order.Order(g)
	if owners == nil {
		return order
	}
	words := (g.N() + 63) / 64
	if cap(e.pick) < words {
		e.pick = make([]uint64, words) //remspan:coldpath bitmap grows to the largest graph seen, then is reused
	}
	pick := e.pick[:words]
	for _, u := range owners {
		pick[u>>6] |= 1 << uint(u&63)
	}
	e.picked = e.picked[:0]
	for _, u := range order {
		if pick[u>>6]&(1<<uint(u&63)) != 0 {
			e.picked = append(e.picked, u)
		}
	}
	clear(pick)
	return e.picked
}

// build constructs the rows of owners (nil: every vertex) into tables
// — indexed by owner id, rows pre-sized — in ball-clustered groups of
// 64 spread over sched.Workers workers, one builder each. A row
// depends only on (g, h, owner), so the result is bit-identical at
// every GOMAXPROCS and for any owner subset.
//
//remspan:hotpath
func (e *tableEnv) build(g graph.View, h *graph.CSR, tables []Table, owners []int32) {
	owners = e.cluster(g, owners)
	groups := (len(owners) + 63) / 64
	if groups == 0 {
		return
	}
	width := sched.Workers(groups)
	n := g.N()
	for _, tw := range e.Slots(width) {
		if tw.b == nil || tw.n < n {
			tw.b = NewBatchBuilder(n) //remspan:coldpath one O(64·n) builder per slot, rebuilt only when the vertex count outgrows it
			tw.n = n
		}
	}
	if e.body == nil {
		e.body = e.shard //remspan:coldpath one-time method-value binding, cached across runs
	}
	e.g, e.h, e.tables, e.owners = g, h, tables, owners
	e.RunHeavy(groups, width, e.body)
	e.g, e.h, e.tables, e.owners = nil, nil, nil, nil
}

// BuildTablesBatchedInto is BuildTablesBatched into caller-provided
// tables (len n, rows pre-sized).
func BuildTablesBatchedInto(g graph.View, h *graph.CSR, tables []Table) {
	e := sharedTableEnv.Acquire()
	defer sharedTableEnv.Release(e)
	e.build(g, h, tables, nil)
}
