package reference

import (
	"sort"

	"remspan/internal/graph"
)

// MIS is the map-based form of domtree.MISCSR, Algorithm 2
// DomTreeMIS(r, 1): a maximal independent set of B_G(u, r) \ B_G(u, 1)
// taken in (distance, id) order, each point attached along its BFS
// path. scratch may be nil; pass one to amortize allocations across
// roots.
func MIS(g *graph.Graph, scratch *graph.BFSScratch, u, r int) *graph.Tree {
	if r < 2 {
		panic("reference: MIS requires r >= 2")
	}
	if scratch == nil {
		scratch = graph.NewBFSScratch(g.N())
	}
	dist, parent, visited := scratch.BoundedView(g, u, r)

	// B = vertices with 2 <= dist <= r, processed by (dist, id).
	b := make([]int32, 0, len(visited))
	for _, v := range visited {
		if dist[v] >= 2 {
			b = append(b, v)
		}
	}
	sort.Slice(b, func(i, j int) bool {
		if dist[b[i]] != dist[b[j]] {
			return dist[b[i]] < dist[b[j]]
		}
		return b[i] < b[j]
	})

	t := graph.NewTree(g.N(), u)
	removed := make(map[int32]bool, len(b))
	for _, x := range b {
		if removed[x] {
			continue
		}
		// x is the remaining vertex of B at minimal distance from u.
		t.AddPath(parent, int(x))
		removed[x] = true
		for _, w := range g.Neighbors(int(x)) {
			removed[w] = true
		}
	}
	return t
}
