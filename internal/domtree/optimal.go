package domtree

import (
	"sort"

	"remspan/internal/graph"
)

// Exact optimal cover sizes for the approximation-ratio experiments
// (Prop. 2, Prop. 6, Th. 2). The problems are NP-hard set
// (multi-)covers, solved here by branch & bound with a node budget so
// callers can bail out gracefully on hard instances.

// coverInstance is a multicover problem: pick the fewest candidates so
// that every element e receives at least req[e] distinct picks among
// the candidates covering it.
type coverInstance struct {
	req    []int     // per element demand
	covers [][]int32 // covers[c] = sorted element indices candidate c covers
}

// exactMultiCover returns the optimal cover size. ub is a known valid
// upper bound (e.g. from the greedy heuristic). ok=false when the
// search exceeds maxNodes B&B nodes.
func exactMultiCover(inst coverInstance, ub, maxNodes int) (int, bool) {
	nc := len(inst.covers)
	// Remaining demand and per-element count of still-available
	// candidates, to prune infeasible branches.
	demand := append([]int(nil), inst.req...)
	avail := make([]int, len(inst.req))
	for _, cov := range inst.covers {
		for _, e := range cov {
			avail[e]++
		}
	}
	for e, d := range demand {
		if avail[e] < d {
			// Caller built an infeasible instance.
			return 0, false
		}
	}
	totalDemand := 0
	for _, d := range demand {
		totalDemand += d
	}
	// Order candidates by decreasing coverage so good solutions appear
	// early.
	order := make([]int, nc)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := len(inst.covers[order[i]]), len(inst.covers[order[j]])
		if a != b {
			return a > b
		}
		return order[i] < order[j]
	})
	maxGain := 0
	for _, cov := range inst.covers {
		if len(cov) > maxGain {
			maxGain = len(cov)
		}
	}
	if maxGain == 0 {
		if totalDemand == 0 {
			return 0, true
		}
		return 0, false
	}

	best := ub
	nodes := 0
	exceeded := false
	var dfs func(idx, chosen, remaining int)
	dfs = func(idx, chosen, remaining int) {
		if exceeded {
			return
		}
		nodes++
		if nodes > maxNodes {
			exceeded = true
			return
		}
		if remaining == 0 {
			if chosen < best {
				best = chosen
			}
			return
		}
		// Lower bound: each further pick covers at most maxGain units.
		lb := (remaining + maxGain - 1) / maxGain
		if chosen+lb >= best || idx == nc {
			return
		}
		c := order[idx]
		// Branch 1: take candidate c.
		var dec []int32
		for _, e := range inst.covers[c] {
			if demand[e] > 0 {
				demand[e]--
				dec = append(dec, e)
			}
		}
		dfs(idx+1, chosen+1, remaining-len(dec))
		for _, e := range dec {
			demand[e]++
		}
		// Branch 2: skip candidate c — only feasible if every element
		// it covers retains enough other candidates.
		feasible := true
		for _, e := range inst.covers[c] {
			avail[e]--
			if avail[e] < demand[e] {
				feasible = false
			}
		}
		if feasible {
			dfs(idx+1, chosen, remaining)
		}
		for _, e := range inst.covers[c] {
			avail[e]++
		}
	}
	dfs(0, 0, totalDemand)
	if exceeded {
		return best, false
	}
	return best, true
}

// OptimalKCoverSize returns the exact minimum size of a k-connecting
// (2, 0)-dominating tree for u, i.e. the fewest neighbors of u covering
// every distance-2 vertex v at least min(k, |N(v) ∩ N(u)|) times.
// ok=false when the branch & bound budget maxNodes is exhausted; the
// returned value is then the best (greedy-initialized) upper bound.
func OptimalKCoverSize(g *graph.Graph, u, k, maxNodes int) (size int, ok bool) {
	nu := g.Neighbors(u)
	// Collect distance-2 vertices and index them.
	idx := make(map[int32]int)
	var req []int
	for _, w := range nu {
		for _, v := range g.Neighbors(int(w)) {
			if v == int32(u) || g.HasEdge(u, int(v)) {
				continue
			}
			if _, seen := idx[v]; !seen {
				common := len(g.CommonNeighbors(u, int(v)))
				r := k
				if common < r {
					r = common
				}
				idx[v] = len(req)
				req = append(req, r)
			}
		}
	}
	covers := make([][]int32, len(nu))
	for ci, x := range nu {
		for _, v := range g.Neighbors(int(x)) {
			if e, seen := idx[v]; seen {
				covers[ci] = append(covers[ci], int32(e))
			}
		}
	}
	ub := KGreedyCSR(g, nil, u, k).EdgeCount() // the greedy k-cover size bounds the optimum
	return exactMultiCover(coverInstance{req: req, covers: covers}, ub+1, maxNodes)
}

// OptimalDomTreeLowerBound returns a lower bound on the edge count of
// any (r, β)-dominating tree for u, following the Prop. 2 argument:
// summing, over rings r' = 2..r, the exact optimal cover of ring r' by
// candidate balls in the range [r'−1, r'−1+β], divided by 1+β (each
// optimal-tree vertex is counted at most 1+β times), minus 1.
// ok=false if any ring's exact cover exceeded the node budget.
func OptimalDomTreeLowerBound(g *graph.Graph, u, r, beta, maxNodes int) (lb int, ok bool) {
	dist := graph.BFS(g, u)
	sum := 0
	allOK := true
	for rp := 2; rp <= r; rp++ {
		idx := make(map[int32]int)
		var req []int
		for v := 0; v < g.N(); v++ {
			if int(dist[v]) == rp {
				idx[int32(v)] = len(req)
				req = append(req, 1)
			}
		}
		if len(req) == 0 {
			continue
		}
		var covers [][]int32
		for x := 0; x < g.N(); x++ {
			d := int(dist[x])
			if d < rp-1 || d > rp-1+beta {
				continue
			}
			var cov []int32
			if e, seen := idx[int32(x)]; seen {
				cov = append(cov, int32(e))
			}
			for _, v := range g.Neighbors(x) {
				if e, seen := idx[v]; seen {
					cov = append(cov, int32(e))
				}
			}
			if len(cov) > 0 {
				covers = append(covers, cov)
			}
		}
		opt, covOK := exactMultiCover(coverInstance{req: req, covers: covers}, len(req)+1, maxNodes)
		if !covOK {
			allOK = false
		}
		sum += opt
	}
	lb = sum/(1+beta) - 1
	if lb < 0 {
		lb = 0
	}
	return lb, allOK
}
