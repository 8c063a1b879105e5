package remspan

import (
	"fmt"

	"remspan/internal/distsim"
	"remspan/internal/domtree"
	"remspan/internal/graph"
	"remspan/internal/routing"
)

// DistributedResult reports a synchronous run of the RemSpan protocol
// (Algorithm 3): every node discovers its neighbors, floods neighbor
// lists to the tree radius, computes its dominating tree locally, and
// floods the tree back.
type DistributedResult struct {
	Rounds   int    // always 2(r−1+β)+1, independent of n
	Messages int64  // point-to-point messages sent
	Words    int64  // payload words sent
	H        *Graph // the spanner assembled from the flooded trees
}

// Algorithm selects which dominating-tree computation each node runs.
type Algorithm int

// Distributed algorithm choices.
const (
	// AlgoExact: Algorithm 4 with k=1 → (1,0)-remote-spanner, 3 rounds.
	AlgoExact Algorithm = iota
	// AlgoKConnecting: Algorithm 4 → k-connecting (1,0), 3 rounds.
	AlgoKConnecting
	// AlgoTwoConnecting: Algorithm 5, k=2 → 2-connecting (2,−1), 5 rounds.
	AlgoTwoConnecting
	// AlgoLowStretch: Algorithm 2 with r=⌈1/ε⌉+1 → (1+ε,1−2ε), 2r+1 rounds.
	AlgoLowStretch
)

// RunDistributed executes the protocol on g. k parameterizes
// AlgoKConnecting; eps parameterizes AlgoLowStretch.
func RunDistributed(g *Graph, algo Algorithm, k int, eps float64) (*DistributedResult, error) {
	if err := nilArg("RunDistributed", "g", g == nil); err != nil {
		return nil, err
	}
	var radius int
	var build distsim.TreeBuilder
	switch algo {
	case AlgoExact:
		radius = 1
		build = func(c graph.View, s *domtree.Scratch, u int) *graph.Tree { return domtree.KGreedyCSR(c, s, u, 1) }
	case AlgoKConnecting:
		if k < 1 {
			return nil, fmt.Errorf("remspan: k must be >= 1")
		}
		radius = 1
		kk := k
		build = func(c graph.View, s *domtree.Scratch, u int) *graph.Tree { return domtree.KGreedyCSR(c, s, u, kk) }
	case AlgoTwoConnecting:
		radius = 2
		build = func(c graph.View, s *domtree.Scratch, u int) *graph.Tree { return domtree.KMISCSR(c, s, u, 2) }
	case AlgoLowStretch:
		if eps <= 0 || eps > 1 {
			return nil, fmt.Errorf("remspan: need 0 < eps <= 1")
		}
		r, _ := radiusFor(eps)
		radius = r // β = 1: flooding radius r−1+1 = r
		rr := r
		build = func(c graph.View, s *domtree.Scratch, u int) *graph.Tree { return domtree.MISCSR(c, s, u, rr) }
	default:
		return nil, fmt.Errorf("remspan: unknown algorithm %d", algo)
	}
	res := distsim.RunRemSpan(g.raw(), radius, build)
	return &DistributedResult{
		Rounds:   res.Rounds,
		Messages: res.Messages,
		Words:    res.Words,
		H:        wrap(res.H.Graph()),
	}, nil
}

// FullLinkStateCost returns the flooding cost (messages, payload words)
// of classic full link-state routing on g, for comparison with
// DistributedResult.
func FullLinkStateCost(g *Graph) (messages, words int64) {
	checkArg(g != nil, "FullLinkStateCost needs a non-nil g")
	return distsim.FullLinkState(g.raw())
}

// FloodStats compares OLSR-style multipoint-relay flooding (relays from
// Algorithm 4 with coverage k) against blind flooding from the given
// source: retransmission counts and nodes covered. It panics if k < 1.
func FloodStats(g *Graph, k, source int) (mprTx, blindTx, covered int) {
	checkArg(g != nil, "FloodStats needs a non-nil g")
	checkVertices(g.N(), source)
	checkArg(k >= 1, "FloodStats needs k >= 1, got k = %d", k)
	sel := routing.SelectMPRs(g.raw(), k)
	m := routing.MPRFlood(g.raw(), sel, source, nil)
	b := routing.BlindFlood(g.raw(), source, nil)
	return m.Transmissions, b.Transmissions, m.Covered
}
