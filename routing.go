package remspan

import (
	"fmt"

	"remspan/internal/graph"
	"remspan/internal/routing"
)

// ForwardingTables is the set of per-router forwarding tables (FIBs)
// over an advertised spanner: for every owner u, the next hop and
// believed distance toward every destination in u's augmented view
// H_u. Built on the word-parallel 64-owner engine (DESIGN.md §3e).
type ForwardingTables struct {
	g      *Graph
	tables []routing.Table
}

// BuildForwardingTables computes every router's table over the
// advertised spanner h (h ⊆ g), which the engine sweeps as one CSR
// snapshot taken here. The table set is n² entries, and the
// engine packs vertex ids into 16 bits, so it returns an error, before
// building anything, for a graph past 65,535 vertices, and for an h
// whose vertex count differs from g's.
func BuildForwardingTables(g, h *Graph) (*ForwardingTables, error) {
	if err := checkTableSize(g); err != nil {
		return nil, err
	}
	if h.N() != g.N() {
		return nil, fmt.Errorf("remspan: spanner has %d vertices, graph has %d", h.N(), g.N())
	}
	return &ForwardingTables{g: g, tables: routing.BuildTablesBatched(g.raw(), graph.NewCSR(h.raw()))}, nil
}

// checkTableSize rejects a graph too large for the table engine.
func checkTableSize(g *Graph) error {
	if g.N() > routing.MaxN {
		return fmt.Errorf("remspan: forwarding tables serve at most %d vertices, got %d", routing.MaxN, g.N())
	}
	return nil
}

// NextHop returns the neighbor s forwards to toward t (-1 when t is
// unreachable in s's view, s itself when s == t).
func (ft *ForwardingTables) NextHop(s, t int) int {
	checkVertices(ft.g.N(), s, t)
	return int(ft.tables[s].Next[t])
}

// Dist returns s's believed distance to t in H_s (-1 when unknown).
func (ft *ForwardingTables) Dist(s, t int) int {
	checkVertices(ft.g.N(), s, t)
	return int(ft.tables[s].Dist[t])
}

// RouteTable forwards a packet hop by hop, each hop consulting its own
// table. reason is "delivered" on success, else "unreachable",
// "stale-link" or "trapped" — distinguishing genuinely missing
// connectivity from stale table state.
func (ft *ForwardingTables) RouteTable(s, t int) (path []int, reason string, ok bool) {
	checkVertices(ft.g.N(), s, t)
	r := routing.TableRoute(ft.tables, ft.g.raw(), s, t)
	if !r.OK {
		return nil, r.Reason.String(), false
	}
	out := make([]int, len(r.Path))
	for i, v := range r.Path {
		out[i] = int(v)
	}
	return out, r.Reason.String(), true
}
