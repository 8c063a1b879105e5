package reference

import (
	"sort"

	"remspan/internal/graph"
)

// KMIS is the map-based form of domtree.KMISCSR, Algorithm 5
// DomTreeMIS(2, 1, k): k rounds of independent-set picks among the
// still-uncovered distance-2 vertices, each attached through fresh
// common neighbors of the root.
func KMIS(g *graph.Graph, u, k int) *graph.Tree {
	if k < 1 {
		panic("reference: KMIS requires k >= 1")
	}
	t := graph.NewTree(g.N(), u)

	// S: vertices at distance exactly 2 from u.
	inS := make(map[int32]bool)
	for _, w := range g.Neighbors(u) {
		for _, v := range g.Neighbors(int(w)) {
			if v != int32(u) && !g.HasEdge(u, int(v)) {
				inS[v] = true
			}
		}
	}
	commonLeft := make(map[int32]int, len(inS))
	for v := range inS {
		commonLeft[v] = len(g.CommonNeighbors(u, int(v)))
	}

	covered := func(v int32) bool {
		return commonLeft[v] == 0 || countDisjointWitnesses(g, t, int(v), 2) >= k
	}
	// addToTree attaches a fresh common neighbor y; decrements
	// commonLeft of y's distance-2 neighbors.
	noteTreeMember := func(y int32) {
		for _, v := range g.Neighbors(int(y)) {
			if inS[v] {
				commonLeft[v]--
			}
		}
	}

	for round := 0; round < k && len(inS) > 0; round++ {
		// X := S (snapshot), processed in increasing id.
		order := make([]int32, 0, len(inS))
		for v := range inS {
			order = append(order, v)
		}
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		inX := make(map[int32]bool, len(order))
		for _, v := range order {
			inX[v] = true
		}

		for len(inS) > 0 {
			// Pick the smallest-id x in S ∩ X.
			x := int32(-1)
			for _, v := range order {
				if inX[v] && inS[v] {
					x = v
					break
				}
			}
			if x == -1 {
				break
			}
			// Fresh common neighbors of x and u.
			var fresh []int32
			for _, y := range g.CommonNeighbors(u, int(x)) {
				if !t.Contains(int(y)) {
					fresh = append(fresh, y)
				}
			}
			c := k
			if len(fresh) < c {
				c = len(fresh)
			}
			// x ∈ S implies commonLeft[x] > 0, so c >= 1 (see Prop. 7
			// termination argument); attach u–y1–x then u–y2.. u–yc.
			var affected []int32
			y1 := fresh[0]
			t.Add(int(y1), u)
			noteTreeMember(y1)
			t.Add(int(x), int(y1))
			affected = append(affected, g.Neighbors(int(y1))...)
			affected = append(affected, g.Neighbors(int(x))...)
			for i := 1; i < c; i++ {
				t.Add(int(fresh[i]), u)
				noteTreeMember(fresh[i])
				affected = append(affected, g.Neighbors(int(fresh[i]))...)
			}
			// Coverage can only have changed for S-vertices adjacent to
			// a newly added tree node.
			for _, v := range affected {
				if inS[v] && covered(v) {
					delete(inS, v)
				}
			}
			// X := X \ B_G(x, 1).
			delete(inX, x)
			for _, w := range g.Neighbors(int(x)) {
				delete(inX, w)
			}
		}
	}
	return t
}
