package reference

import (
	"fmt"

	"remspan/internal/graph"
)

// KGreedy is the map-based form of domtree.KGreedyCSR, Algorithm 4
// DomTreeGdy(2, 0, k): greedy k-coverage multipoint-relay selection,
// rescanning every candidate relay per pick with the (gain desc,
// id asc) tie-break.
func KGreedy(g *graph.Graph, u, k int) *graph.Tree {
	if k < 1 {
		panic("reference: KGreedy requires k >= 1")
	}
	t := graph.NewTree(g.N(), u)
	nu := g.Neighbors(u)

	// S: vertices at distance exactly 2 from u.
	inS := make(map[int32]bool)
	for _, w := range nu {
		for _, v := range g.Neighbors(int(w)) {
			if v != int32(u) && !g.HasEdge(u, int(v)) {
				inS[v] = true
			}
		}
	}

	// Per-S-vertex state: how many selected relays cover it and how
	// many of its common neighbors with u remain unselected.
	hits := make(map[int32]int, len(inS))
	commonLeft := make(map[int32]int, len(inS))
	for v := range inS {
		commonLeft[v] = len(g.CommonNeighbors(u, int(v)))
	}

	// gain[x] = |N(x) ∩ S| for candidate relays x ∈ N(u), maintained
	// exactly as vertices leave S.
	gain := make(map[int32]int, len(nu))
	for _, x := range nu {
		c := 0
		for _, v := range g.Neighbors(int(x)) {
			if inS[v] {
				c++
			}
		}
		gain[x] = c
	}
	selected := make(map[int32]bool, len(nu))

	removeFromS := func(v int32) {
		delete(inS, v)
		for _, w := range g.Neighbors(int(v)) {
			if _, ok := gain[w]; ok && !selected[w] {
				gain[w]--
			}
		}
	}

	for len(inS) > 0 {
		best, bestGain := int32(-1), 0
		for _, x := range nu {
			if selected[x] {
				continue
			}
			if gc := gain[x]; gc > bestGain || (gc == bestGain && gc > 0 && (best == -1 || x < best)) {
				best, bestGain = x, gc
			}
		}
		if best == -1 {
			panic(fmt.Sprintf("reference: k-cover stuck at root %d (|S|=%d)", u, len(inS)))
		}
		selected[best] = true
		t.Add(int(best), u)
		// Update coverage of best's distance-2 neighbors.
		for _, v := range g.Neighbors(int(best)) {
			if !inS[v] {
				continue
			}
			hits[v]++
			commonLeft[v]--
			if hits[v] >= k || commonLeft[v] == 0 {
				removeFromS(v)
			}
		}
	}
	return t
}
