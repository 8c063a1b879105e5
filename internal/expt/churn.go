package expt

import (
	"remspan/internal/domtree"
	"remspan/internal/dynamic"
	"remspan/internal/graph"
	"remspan/internal/spanner"
	"remspan/internal/stats"
)

// Churn quantifies the locality dividend of the paper's constructions
// (§2.3 / §1: "a node can decide which edges to add to the
// remote-spanner independently from other node decisions"): under edge
// churn, an incremental maintainer patches its CSR in place and
// rebuilds only the dominating trees whose constant-radius input
// changed — batches union their dirty balls and repair each root once —
// yet stays bit-identical to full recomputation.
func Churn(cfg Config) (*stats.Table, error) {
	n, changes, batchSize := 600, 60, 10
	if cfg.Quick {
		n, changes, batchSize = 200, 25, 5
	}
	g := udgWithN(n, 4, cfg.rng(1500))
	build := func(c graph.View, s *domtree.Scratch, u int) *graph.Tree {
		return domtree.KGreedyCSR(c, s, u, 1)
	}
	m := dynamic.New(g, 1, build)
	initial := m.TreesRebuilt()

	rng := cfg.rng(1501)
	applied := 0
	batch := make([]dynamic.Change, 0, batchSize)
	for applied < changes {
		batch = batch[:0]
		for len(batch) < batchSize {
			u, v := rng.Intn(g.N()), rng.Intn(g.N())
			if u == v {
				continue
			}
			kind := dynamic.AddEdge
			if m.View().HasEdge(u, v) {
				kind = dynamic.RemoveEdge
			}
			batch = append(batch, dynamic.Change{Kind: kind, U: u, V: v})
		}
		applied += m.ApplyBatch(batch)
	}
	perChange := float64(m.TreesRebuilt()-initial) / float64(applied)

	// Equivalence with full recomputation on the final graph.
	var full [][2]int32
	final := m.Graph()
	csr := graph.NewCSR(final)
	scratch := domtree.NewScratch(final.N())
	for u := 0; u < final.N(); u++ {
		full = append(full, build(csr, scratch, u).Edges()...)
	}
	same := m.Spanner().Equal(graph.NewEdgeSet(final.N(), full))
	viol := spanner.Check(final, m.Spanner().Graph(), spanner.NewStretch(1, 0))

	t := stats.NewTable("Incremental remote-spanner maintenance under edge churn",
		"metric", "value", "verdict")
	t.AddRow("nodes / initial edges", g.N(), "PASS")
	t.AddRow("edge changes applied", applied, "PASS")
	t.AddRow("batch size (ApplyBatch)", batchSize, "PASS")
	t.AddRow("trees rebuilt per change (avg)", perChange,
		verdict(perChange < float64(g.N())/2))
	t.AddRow("full rebuild would be (trees/change)", g.N(), "PASS")
	t.AddRow("identical to full recomputation", same, verdict(same))
	t.AddRow("final spanner satisfies (1,0)", viol == nil, verdict(viol == nil))
	t.AddNote("locality radius R=1 (Algorithm 4): only roots within distance R of a change rebuild")
	t.AddNote("snapshot-free: per-change cost is O(deg) CSR row patches + bounded rebuilds, never O(n+m)")
	return t, nil
}
