package routing

import (
	"remspan/internal/domtree"
	"remspan/internal/graph"
)

// MPRSelection holds, for every node, its multipoint relays — the
// children of its k-connecting (2, 0)-dominating tree (Algorithm 4).
// mpr[u][v] reports whether v is a relay of u.
type MPRSelection struct {
	mpr []map[int32]bool
}

// SelectMPRs computes the k-coverage multipoint relays of every node.
// k = 1 is the OLSR selection ([15, 4]); larger k is the k-coverage
// extension ([4, 5]) shown by the paper to be k-connecting.
func SelectMPRs(g *graph.Graph, k int) *MPRSelection {
	sel := &MPRSelection{mpr: make([]map[int32]bool, g.N())}
	s := domtree.NewScratch(g.N())
	for u := 0; u < g.N(); u++ {
		t := domtree.KGreedyCSR(g, s, u, k)
		m := make(map[int32]bool)
		for _, v := range domtree.MPRSet(t) {
			m[v] = true
		}
		sel.mpr[u] = m
	}
	return sel
}

// IsRelay reports whether v is a multipoint relay of u.
func (s *MPRSelection) IsRelay(u, v int) bool { return s.mpr[u][int32(v)] }

// FloodResult summarizes a broadcast simulation.
type FloodResult struct {
	Transmissions int // nodes that retransmitted (including the source)
	Covered       int // nodes that received the message (incl. source)
}

// MPRFlood simulates OLSR optimized flooding from src: a node
// retransmits a message iff it is a relay of the neighbor it first
// received the message from. failed (may be nil) marks crashed nodes
// that neither receive nor forward.
func MPRFlood(g *graph.Graph, sel *MPRSelection, src int, failed []bool) FloodResult {
	n := g.N()
	received := make([]bool, n)
	if failed != nil && failed[src] {
		return FloodResult{}
	}
	received[src] = true
	type item struct{ node, from int32 }
	queue := []item{{int32(src), -1}}
	res := FloodResult{Covered: 1}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		// The source always transmits; others only as designated relays.
		if it.from >= 0 && !sel.IsRelay(int(it.from), int(it.node)) {
			continue
		}
		res.Transmissions++
		for _, v := range g.Neighbors(int(it.node)) {
			if received[v] || (failed != nil && failed[v]) {
				continue
			}
			received[v] = true
			res.Covered++
			queue = append(queue, item{v, it.node})
		}
	}
	return res
}

// BlindFlood simulates classic flooding: every node retransmits the
// first copy it receives.
func BlindFlood(g *graph.Graph, src int, failed []bool) FloodResult {
	n := g.N()
	received := make([]bool, n)
	if failed != nil && failed[src] {
		return FloodResult{}
	}
	received[src] = true
	queue := []int32{int32(src)}
	res := FloodResult{Covered: 1}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		res.Transmissions++
		for _, v := range g.Neighbors(int(u)) {
			if received[v] || (failed != nil && failed[v]) {
				continue
			}
			received[v] = true
			res.Covered++
			queue = append(queue, v)
		}
	}
	return res
}
