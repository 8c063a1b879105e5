// Package spanner assembles remote-spanners as unions of per-node
// dominating trees (the paper's characterizations) and verifies their
// stretch guarantees exactly.
//
// Constructions:
//
//   - Exact / KConnecting: union of Algorithm 4 trees — k-connecting
//     (1, 0)-remote-spanners (Prop. 5, Th. 2).
//   - TwoConnecting / KMIS: union of Algorithm 5 trees — 2-connecting
//     (2, −1)-remote-spanners (Prop. 4, Th. 3).
//   - LowStretch: union of Algorithm 2 MIS trees with
//     r = ⌈1/ε⌉ + 1 — (1+ε', 1−2ε')-remote-spanners with
//     ε' = 1/(r−1) ≤ ε (Prop. 1, Th. 1).
//
// All constructions run on one immutable graph.CSR snapshot taken up
// front, with one reusable domtree.Scratch per worker, so the per-root
// hot loops are allocation-free (DESIGN.md §3). The equivalence tests
// pin every construction against reference.Union over the map-based
// builders of internal/reference.
package spanner

import (
	"math"

	"remspan/internal/domtree"
	"remspan/internal/graph"
)

// Result is a constructed remote-spanner together with per-root tree
// sizes (in edges) for size accounting.
type Result struct {
	H         *graph.EdgeSet // the spanner edge set
	TreeEdges []int          // edges of the dominating tree per root
	R         int            // tree radius used (2 for the k-connecting families)
	EpsEff    float64        // effective ε' for the low-stretch families (0 otherwise)
}

// Edges returns the spanner's edge count.
func (r *Result) Edges() int { return r.H.Len() }

// Graph materializes the spanner as a Graph.
func (r *Result) Graph() *graph.Graph { return r.H.Graph() }

// RadiusFor returns the dominating-tree radius r = ⌈1/ε⌉ + 1 used by
// the low-stretch constructions, and the effective stretch parameter
// ε' = 1/(r−1).
func RadiusFor(eps float64) (r int, epsEff float64) {
	if eps <= 0 || eps > 1 {
		panic("spanner: require 0 < eps <= 1")
	}
	r = int(math.Ceil(1/eps)) + 1
	return r, 1 / float64(r-1)
}

// Exact returns a (1, 0)-remote-spanner: exact distances are preserved
// in every augmented view H_u (Prop. 5 with k = 1). This is the union
// of multipoint-relay selections over all nodes.
func Exact(g *graph.Graph) *Result { return KConnecting(g, 1) }

// KConnecting returns a k-connecting (1, 0)-remote-spanner as the union
// of Algorithm 4 greedy k-cover trees over all roots (Th. 2).
func KConnecting(g *graph.Graph, k int) *Result {
	res := buildParallel(g, func(c graph.View, s *domtree.Scratch, u int) *graph.Tree {
		return domtree.KGreedyCSR(c, s, u, k)
	})
	res.R = 2
	return res
}

// TwoConnecting returns a 2-connecting (2, −1)-remote-spanner as the
// union of Algorithm 5 trees with k = 2 (Th. 3).
func TwoConnecting(g *graph.Graph) *Result { return KMIS(g, 2) }

// KMIS returns the union of Algorithm 5 k-connecting (2, 1)-dominating
// trees over all roots. For k = 2 this is the paper's Th. 3
// construction.
func KMIS(g *graph.Graph, k int) *Result {
	res := buildParallel(g, func(c graph.View, s *domtree.Scratch, u int) *graph.Tree {
		return domtree.KMISCSR(c, s, u, k)
	})
	res.R = 2
	return res
}

// LowStretch returns a (1+ε', 1−2ε')-remote-spanner with
// ε' = 1/⌈1/ε⌉ ≤ ε, as the union of Algorithm 2 MIS dominating trees
// with radius r = ⌈1/ε⌉ + 1 (Th. 1). In the unit ball graph of a
// doubling metric of dimension p it has O(ε^{−(p+1)} n) edges.
func LowStretch(g *graph.Graph, eps float64) *Result {
	r, epsEff := RadiusFor(eps)
	res := buildParallel(g, func(c graph.View, s *domtree.Scratch, u int) *graph.Tree {
		return domtree.MISCSR(c, s, u, r)
	})
	res.R = r
	res.EpsEff = epsEff
	return res
}
