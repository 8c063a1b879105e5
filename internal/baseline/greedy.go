// Package baseline implements the classical spanner constructions the
// paper compares against in Table 1:
//
//   - Greedy (2k−1)-spanners on unweighted graphs (Althöfer et al.),
//     the generic-graph comparator with O(n^{1+1/k}) edges.
//   - Baswana–Sen randomized (2k−1, 0)-spanners with O(k·n^{1+1/k})
//     expected edges (substituting for the (k, k−1)-spanners of [2] —
//     same size bound, see DESIGN.md §3).
//   - Greedy (1+ε, 0)-spanners on weighted unit-ball graphs with known
//     distances (substituting for [9]).
//   - k-fault-tolerant (1+ε, 0) geometric spanners via a
//     disjoint-short-path certificate (substituting for [8]).
//
// Every (α, β)-spanner is an (α, β−α+1)-remote-spanner (§1.2), so these
// also serve as remote-spanner baselines via RemoteStretch.
package baseline

import (
	"remspan/internal/graph"
)

// GreedySpanner returns the unweighted greedy t-spanner of g for odd
// stretch t = 2k−1: edges are scanned in lexicographic order and kept
// iff the spanner built so far has d_H(u, v) > t. The result satisfies
// d_H(u, v) ≤ t·d_G(u, v) for all pairs and has O(n^{1+1/k}) edges
// (girth argument).
func GreedySpanner(g *graph.Graph, t int) *graph.Graph {
	if t < 1 {
		panic("baseline: stretch must be >= 1")
	}
	h := graph.New(g.N())
	scratch := graph.NewBFSScratch(g.N())
	g.EachEdge(func(u, v int) {
		dist, _, _ := scratch.BoundedView(h, u, t)
		if dist[v] == graph.Unreached || int(dist[v]) > t {
			h.AddEdge(u, v)
		}
	})
	return h
}

// RemoteStretch converts a spanner guarantee (α, β) into the
// remote-spanner guarantee it implies: (α, β−α+1) (§1.2: apply the
// spanner bound from the first hop u' of a shortest u→v path).
func RemoteStretch(alpha, beta int64) (int64, int64) {
	return alpha, beta - alpha + 1
}
