package expt

import (
	"remspan/internal/distsim"
	"remspan/internal/domtree"
	"remspan/internal/graph"
	"remspan/internal/stats"
)

// Asynchrony reproduces the paper's §1 claim that remote-spanner
// computation needs "no synchronisation between node decisions": the
// RemSpan protocol run with adversarially random message delays must
// produce exactly the spanner of the synchronous (and centralized)
// execution, because each node's decision depends only on the monotone
// knowledge it eventually collects.
func Asynchrony(cfg Config) (*stats.Table, error) {
	n := 300
	trials := 5
	if cfg.Quick {
		n = 120
		trials = 3
	}
	g := udgWithN(n, 4, cfg.rng(1700))

	t := stats.NewTable("Asynchronous RemSpan: timing invariance of the spanner",
		"algo", "delay seed", "messages", "deliveries", "edges", "identical to sync", "verdict")

	type variant struct {
		name   string
		radius int
		build  distsim.TreeBuilder
	}
	variants := []variant{
		{"Alg.4 k=1 (exact)", 1,
			func(c graph.View, s *domtree.Scratch, u int) *graph.Tree { return domtree.KGreedyCSR(c, s, u, 1) }},
		{"Alg.5 k=2 (2-connecting)", 2,
			func(c graph.View, s *domtree.Scratch, u int) *graph.Tree { return domtree.KMISCSR(c, s, u, 2) }},
	}
	for _, v := range variants {
		sync := distsim.RunRemSpan(g, v.radius, v.build)
		for trial := 0; trial < trials; trial++ {
			rng := cfg.rng(int64(1710 + trial))
			async := distsim.RunRemSpanAsync(g, v.radius, v.build, rng)
			same := async.H.Len() == sync.H.Len()
			if same {
				ae, se := async.H.Edges(), sync.H.Edges()
				for i := range ae {
					if ae[i] != se[i] {
						same = false
						break
					}
				}
			}
			t.AddRow(v.name, trial, async.Messages, async.Deliveries,
				async.H.Len(), same, verdict(same))
		}
	}
	t.AddNote("n=%d, m=%d; per-link delays i.i.d. uniform in [1,2) time units", g.N(), g.M())
	return t, nil
}
