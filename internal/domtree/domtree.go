// Package domtree implements the paper's dominating-tree constructions
// — the local building blocks of remote-spanners:
//
//   - GreedyCSR: Algorithm 1, DomTreeGdy(r, β), a greedy set-cover tree
//     within (1+β)(r+β−1)(1+log Δ) of optimal (Prop. 2).
//   - MISCSR: Algorithm 2, DomTreeMIS(r, 1), a maximal-independent-set
//     tree with O(r^{p+1}) edges in doubling unit-ball graphs (Prop. 3).
//   - KGreedyCSR: Algorithm 4, DomTreeGdy(2, 0, k), greedy k-coverage
//     multipoint-relay selection within 1+log Δ of optimal (Prop. 6).
//   - KMISCSR: Algorithm 5, DomTreeMIS(2, 1, k), k rounds of MIS
//     domination building a k-connecting (2, 1)-dominating tree with
//     O(k²) edges in doubling unit-ball graphs (Prop. 7).
//
// Each builder runs over any graph.View — an immutable graph.CSR
// snapshot in the batch pipeline, a patched graph.CSRDelta in the
// incremental maintainer, a mutable graph.Graph for one-off trees —
// with epoch-stamped Scratch arrays instead of hash maps and, for the
// greedy covers, lazy-heap selection instead of a full candidate
// rescan per pick; an all-roots sweep with a shared Scratch performs
// no per-root allocations. All selections break ties by smallest
// vertex id (the determinism contract in csr.go). The equivalence
// tests pin every builder edge for edge against the map-based forms
// in internal/reference. Exact optimal (multi-)cover sizes for the
// approximation-ratio experiments live in optimal.go.
package domtree

import (
	"remspan/internal/graph"
)

// MPRSet returns the multipoint-relay set of u implied by its
// k-connecting (2,0)-dominating tree: the children of the root.
func MPRSet(t *graph.Tree) []int32 {
	var out []int32
	root := t.Root()
	for _, v := range t.Nodes() {
		if t.Parent(int(v)) == root {
			out = append(out, v)
		}
	}
	return out
}
