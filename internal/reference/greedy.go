package reference

import (
	"fmt"

	"remspan/internal/graph"
)

// Greedy is the map-based form of domtree.GreedyCSR, Algorithm 1
// DomTreeGdy(r, β): per ring r' = 2..r, a greedy set cover rescanning
// every candidate per pick, with the same (gain desc, id asc)
// tie-break. β must be 0 or 1; r ≥ 2. scratch may be nil; pass one to
// amortize allocations across roots.
func Greedy(g *graph.Graph, scratch *graph.BFSScratch, u, r, beta int) *graph.Tree {
	if r < 2 {
		panic("reference: Greedy requires r >= 2")
	}
	if beta != 0 && beta != 1 {
		panic("reference: Greedy requires beta in {0, 1}")
	}
	if scratch == nil {
		scratch = graph.NewBFSScratch(g.N())
	}
	radius := r - 1 + beta
	if r > radius {
		radius = r
	}
	dist, parent, visited := scratch.BoundedView(g, u, radius)

	t := graph.NewTree(g.N(), u)
	covered := make(map[int32]bool) // covered S-members of the current ring

	for rp := 2; rp <= r; rp++ {
		// S: uncovered vertices at distance exactly rp.
		// X: candidates at distance in [rp-1, rp-1+beta].
		var s []int32
		var x []int32
		lo, hi := int32(rp-1), int32(rp-1+beta)
		for _, v := range visited {
			if dist[v] == int32(rp) {
				s = append(s, v)
			}
			if dist[v] >= lo && dist[v] <= hi {
				x = append(x, v)
			}
		}
		for k := range covered {
			delete(covered, k)
		}
		remaining := len(s)
		inS := make(map[int32]bool, len(s))
		for _, v := range s {
			inS[v] = true
		}
		picked := make(map[int32]bool)
		// gain(c) = |B_G(c,1) ∩ S_uncovered|.
		gain := func(c int32) int {
			gcount := 0
			if inS[c] && !covered[c] {
				gcount++
			}
			for _, w := range g.Neighbors(int(c)) {
				if inS[w] && !covered[w] {
					gcount++
				}
			}
			return gcount
		}
		for remaining > 0 {
			best, bestGain := int32(-1), 0
			for _, c := range x {
				if picked[c] {
					continue
				}
				if gc := gain(c); gc > bestGain || (gc == bestGain && gc > 0 && (best == -1 || c < best)) {
					best, bestGain = c, gc
				}
			}
			if best == -1 || bestGain == 0 {
				panic(fmt.Sprintf("reference: greedy cover stuck at ring %d of root %d", rp, u))
			}
			picked[best] = true
			t.AddPath(parent, int(best))
			if inS[best] && !covered[best] {
				covered[best] = true
				remaining--
			}
			for _, w := range g.Neighbors(int(best)) {
				if inS[w] && !covered[w] {
					covered[w] = true
					remaining--
				}
			}
		}
	}
	return t
}
