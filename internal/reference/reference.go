// Package reference holds the plain implementations the tests pin
// production code against: the map-based dominating-tree builders
// (Algorithms 1, 2, 4 and 5), the dominating-tree property checkers and
// the serial union of per-root trees — hash-map state and a full
// candidate rescan per greedy pick, so a differential test can tell a
// production shortcut from a change of output. It also holds what the
// tests of several packages share and production never runs: graph
// equality, the tree consistency check, all-pairs distances and the
// fixed graph families (fixtures.go).
//
// Only _test.go files import this package; the production gate in
// cmd/remspanlint's tests fails when a production file does. It imports
// nothing of the module but internal/graph, so the in-package tests of
// any package above graph can use it without an import cycle (graph's
// own tests use it from package graph_test).
package reference

import "remspan/internal/graph"

// An (r, β)-dominating tree for u (paper §1.1): a tree T rooted at u
// such that every v with 2 ≤ d_G(u, v) = r' ≤ r has a neighbor
// x ∈ N(v) ∩ V(T) with d_T(u, x) ≤ r' − 1 + β.

// IsDominatingTree checks the (r, β)-dominating-tree property of t for
// its root, returning a counterexample vertex (-1 when the property
// holds). It also validates tree consistency against g.
func IsDominatingTree(g *graph.Graph, t *graph.Tree, r, beta int) (badVertex int, err error) {
	if err := ValidateTree(t, g); err != nil {
		return -1, err
	}
	u := t.Root()
	dist := graph.BFS(g, u)
	for v := 0; v < g.N(); v++ {
		d := int(dist[v])
		if d < 2 || d > r {
			continue
		}
		ok := false
		for _, x := range g.Neighbors(v) {
			if t.Contains(int(x)) && t.Depth(int(x)) <= d-1+beta {
				ok = true
				break
			}
		}
		if !ok {
			return v, nil
		}
	}
	return -1, nil
}

// A k-connecting (2, β)-dominating tree for u (paper §3): for every v
// at distance 2 from u, either uw ∈ E(T) for all w ∈ N(u) ∩ N(v), or v
// has k neighbors in B_T(u, 1+β) whose tree paths to u are internally
// disjoint.

// IsKConnDominatingTree checks the k-connecting (2, β)-dominating-tree
// property, returning a counterexample vertex (-1 when it holds).
func IsKConnDominatingTree(g *graph.Graph, t *graph.Tree, k, beta int) (badVertex int, err error) {
	if err := ValidateTree(t, g); err != nil {
		return -1, err
	}
	u := t.Root()
	dist := graph.BFS(g, u)
	for v := 0; v < g.N(); v++ {
		if dist[v] != 2 {
			continue
		}
		// Escape clause: all common neighbors are direct children of u.
		all := true
		for _, w := range g.CommonNeighbors(u, v) {
			if !(t.Contains(int(w)) && t.Parent(int(w)) == u) {
				all = false
				break
			}
		}
		if all {
			continue
		}
		if countDisjointWitnesses(g, t, v, 1+beta) >= k {
			continue
		}
		return v, nil
	}
	return -1, nil
}

// countDisjointWitnesses counts the maximum number of neighbors of v
// inside B_T(root, maxDepth) whose root paths are internally disjoint,
// i.e. the number of distinct root branches they occupy.
func countDisjointWitnesses(g *graph.Graph, t *graph.Tree, v, maxDepth int) int {
	branches := make(map[int]struct{})
	for _, w := range g.Neighbors(v) {
		wi := int(w)
		if !t.Contains(wi) {
			continue
		}
		d := t.Depth(wi)
		if d < 1 || d > maxDepth {
			continue
		}
		branches[t.Branch(wi)] = struct{}{}
	}
	return len(branches)
}

// Union builds the union of build(u) over all roots of g serially,
// sharing one BFS scratch, and returns the edge set with each root's
// tree size in edges — the reference for the production constructions
// of package spanner (unions of the *CSR builders on the shard-parallel
// fan-out).
func Union(g *graph.Graph, build func(u int, s *graph.BFSScratch) *graph.Tree) (h *graph.EdgeSet, sizes []int) {
	var edges [][2]int32
	sizes = make([]int, g.N())
	scratch := graph.NewBFSScratch(g.N())
	for u := 0; u < g.N(); u++ {
		t := build(u, scratch)
		sizes[u] = t.EdgeCount()
		edges = append(edges, t.Edges()...)
	}
	return graph.NewEdgeSet(g.N(), edges), sizes
}
