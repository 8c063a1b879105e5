package baseline

import (
	"math"
	"sort"

	"remspan/internal/graph"
)

// Additive2 returns a purely additive (1, 2)-spanner with
// O(n^{3/2} log n) edges (Aingworth–Chekuri–Indyk–Motwani):
//
//  1. keep every edge incident to a vertex of degree < √n;
//  2. greedily dominate the high-degree vertices;
//  3. add a full BFS tree from each dominator.
//
// For any pair, either the shortest path is all-low-degree (kept
// verbatim) or it passes a high-degree vertex whose dominator's BFS
// tree gives a detour of +2. Relevant to the paper's §1.2 discussion of
// additive stretch and the Woodruff lower bounds; via the §1.2 adapter
// it is a (1, 2)-remote-spanner.
func Additive2(g *graph.Graph) *graph.Graph {
	n := g.N()
	h := graph.New(n)
	if n == 0 {
		return h
	}
	s := int(math.Ceil(math.Sqrt(float64(n))))

	// Step 1: low-degree edges.
	g.EachEdge(func(u, v int) {
		if g.Degree(u) < s || g.Degree(v) < s {
			h.AddEdge(u, v)
		}
	})

	// Step 2: greedy dominating set of the high-degree vertices.
	// Candidates: all vertices; candidate x covers the high-degree
	// vertices in B(x, 1).
	high := make([]bool, n)
	remaining := 0
	for v := 0; v < n; v++ {
		if g.Degree(v) >= s {
			high[v] = true
			remaining++
		}
	}
	covered := make([]bool, n)
	var dominators []int
	for remaining > 0 {
		best, bestGain := -1, 0
		for x := 0; x < n; x++ {
			gain := 0
			if high[x] && !covered[x] {
				gain++
			}
			for _, w := range g.Neighbors(x) {
				if high[w] && !covered[w] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = x, gain
			}
		}
		if best == -1 {
			break // isolated high-degree vertices cannot exist (deg ≥ s ≥ 1)
		}
		dominators = append(dominators, best)
		if high[best] && !covered[best] {
			covered[best] = true
			remaining--
		}
		for _, w := range g.Neighbors(best) {
			if high[w] && !covered[w] {
				covered[w] = true
				remaining--
			}
		}
	}
	sort.Ints(dominators)

	// Step 3: BFS trees from the dominators.
	for _, d := range dominators {
		parent, dist := graph.BFSTree(g, d)
		for v := 0; v < n; v++ {
			if dist[v] != graph.Unreached && parent[v] >= 0 {
				h.AddEdge(v, int(parent[v]))
			}
		}
	}
	return h
}
