// Package oracle builds approximate distance oracles from
// remote-spanners — one of the classical spanner applications the paper
// lists in its introduction, adapted to the remote setting: the oracle
// stores the spanner H plus each node's own adjacency (exactly the
// knowledge a router has), and answers d̂(u, v) = d_{H_u}(u, v), which
// the remote-spanner property bounds by α·d_G(u, v) + β.
//
// Queries run one star-seeded BFS over CSR snapshots of H (u's
// incident edges from G, everything else from H); storage is
// |E(H)| + Σdeg words instead of the n² of an exact all-pairs table.
// Validate, the all-pairs self-check, runs on the word-parallel
// 64-source batch engine (graph.BitScratch + spanner.JudgeViews) at
// every size: O(n·m/64) word operations instead of the O(n²·m) of
// re-running a per-pair query BFS.
package oracle

import (
	"remspan/internal/graph"
	"remspan/internal/spanner"
)

// Oracle answers approximate distance queries over a fixed graph.
type Oracle struct {
	g      *graph.Graph // adjacency membership for the Query fast path
	cg, ch *graph.CSR   // immutable traversal snapshots of G and H
	st     spanner.Stretch

	// per-query scratch (the oracle is not safe for concurrent use;
	// Clone per goroutine).
	scratch *spanner.ViewScratch
}

// New builds an oracle from a graph and a remote-spanner of it with the
// given guarantee.
func New(g, h *graph.Graph, st spanner.Stretch) *Oracle {
	return &Oracle{
		g: g, cg: graph.NewCSR(g), ch: graph.NewCSR(h), st: st,
		scratch: spanner.NewViewScratch(g.N()),
	}
}

// Clone returns an independently usable oracle sharing the immutable
// graph data.
func (o *Oracle) Clone() *Oracle {
	return &Oracle{
		g: o.g, cg: o.cg, ch: o.ch, st: o.st,
		scratch: spanner.NewViewScratch(o.g.N()),
	}
}

// Stretch returns the guarantee the oracle answers under:
// d_G(u,v) ≤ Query(u,v) ≤ α·d_G(u,v) + β.
func (o *Oracle) Stretch() spanner.Stretch { return o.st }

// StorageWords returns the oracle's storage footprint in int32 words:
// the spanner edges (twice, adjacency form) plus the query node's
// neighbor lists.
func (o *Oracle) StorageWords() int {
	return 4*o.ch.M() + 2*o.cg.M()
}

// Query returns d_{H_u}(u, v): an upper bound on d_G(u, v) within the
// oracle's stretch, or -1 when v is unreachable in H_u.
func (o *Oracle) Query(u, v int) int {
	if u == v {
		return 0
	}
	if o.g.HasEdge(u, v) {
		return 1
	}
	return int(o.scratch.BFSCSR(o.cg, o.ch, u)[v])
}

// QueryBatch answers distances from u to every target in one traversal
// over the CSR snapshots.
func (o *Oracle) QueryBatch(u int, targets []int) []int {
	dist := o.scratch.BFSCSR(o.cg, o.ch, u)
	out := make([]int, len(targets))
	for i, t := range targets {
		switch {
		case t == u:
			out[i] = 0
		case o.g.HasEdge(u, t):
			out[i] = 1
		default:
			out[i] = int(dist[t])
		}
	}
	return out
}

// Validate checks the oracle's two-sided guarantee on all pairs:
// d_G ≤ Query ≤ α·d_G + β (upper side only for non-adjacent pairs, as
// the remote-spanner property dictates). Returns the first violating
// pair in (u, v) lexicographic order, or (-1, -1).
//
// It runs 64 sources per sweep on the word-parallel batch engine;
// ValidateScalar is the fallback outside the engine's preconditions.
func (o *Oracle) Validate() (int, int) {
	// The batched judge only tests the upper bound against a monotone
	// threshold table, so it requires h ⊆ g (no underestimates can
	// exist) and a well-formed stretch. Oracles are built from
	// untrusted h and an open Stretch struct — anything outside those
	// preconditions takes the scalar pass, which checks both sides pair
	// by pair.
	if !o.st.WellFormed() || !o.ch.SubsetOf(o.cg) {
		return o.ValidateScalar()
	}
	// Adjacent pairs (d_G = 1) can never violate — the star seeding
	// pins their estimate to exactly 1 and the bound is only claimed
	// for non-adjacent pairs — and with h ⊆ g the estimate never
	// underestimates, so the deadline-lockstep judge's upper-bound
	// test is the whole check.
	u, v, _, ok := spanner.JudgeViews(o.cg, o.ch, o.st)
	if !ok {
		return -1, -1
	}
	return u, v
}

// ValidateScalar is Validate's two-sided scalar pass, and the
// reference its batched path is pinned against: one BFS pair per
// source u — the G distances plus one star-seeded H_u traversal
// answering every target at once — instead of the quadratic blowup of
// a fresh Query BFS per (u, v) pair.
func (o *Oracle) ValidateScalar() (int, int) {
	n := o.cg.N()
	gs := graph.NewBFSScratch(n)
	vs := spanner.NewViewScratch(n)
	for u := 0; u < n; u++ {
		dg, _, _ := gs.BoundedView(o.cg, u, n)
		dh := vs.BFSCSR(o.cg, o.ch, u)
		for v := 0; v < n; v++ {
			if u == v || dg[v] == graph.Unreached {
				continue
			}
			est := dh[v] // == Query(u, v): 1 for G-neighbors by the star seeding
			if est < dg[v] {
				return u, v // never underestimate (Unreached sorts below any d_G)
			}
			if dg[v] >= 2 && !o.st.Holds(int64(dg[v]), int64(est)) {
				return u, v
			}
		}
	}
	return -1, -1
}
