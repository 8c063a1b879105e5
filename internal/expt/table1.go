package expt

import (
	"fmt"
	"math"

	"remspan/internal/baseline"
	"remspan/internal/gen"
	"remspan/internal/graph"
	"remspan/internal/spanner"
	"remspan/internal/stats"
)

// Table1 reproduces the paper's Table 1 row by row with measured edge
// counts on concrete inputs (the paper's table lists asymptotic
// bounds; we report the measured sizes next to them and verify every
// stretch guarantee that is checkable on the instance). Rows follow the
// paper's order.
func Table1(cfg Config) (*stats.Table, error) {
	nAny, nUDG, nUBG, nPts := 1024, 1024, 700, 150
	if cfg.Quick {
		nAny, nUDG, nUBG, nPts = 256, 320, 220, 60
	}
	k := 3 // spanner parameter for the generic-graph rows

	t := stats.NewTable("Table 1 — remote-spanners versus regular spanners",
		"input", "structure", "paper size bound", "n", "m", "edges", "time", "verdict")

	// Row 1: any graph, (k, k−1)-spanner [2] — substituted by
	// Baswana–Sen (2k−1, 0) with the same O(k·n^{1+1/k}) size bound.
	rng := cfg.rng(2)
	er := gen.ErdosRenyi(nAny, 16/float64(nAny), rng)
	bs := baseline.BaswanaSen(er, k, rng)
	okBS := spannerEdgesOK(er, bs, 2*k-1)
	t.AddRow("any graph", fmt.Sprintf("(%d,%d)-span. [2]→BS(2k−1)", k, k-1),
		"O(k·n^{1+1/k})", er.N(), er.M(), bs.M(), "O(k)", verdict(okBS))

	// Row 2: any graph, (k, 0)-remote-spanner using [2] — the same edge
	// set read as a remote-spanner via §1.2 (α, β−α+1).
	alpha, beta := baseline.RemoteStretch(int64(2*k-1), 0)
	violR := spanner.Check(er, bs, spanner.NewStretch(alpha, beta))
	t.AddRow("any graph", fmt.Sprintf("(%d,0)-rem.-span. via §1.2", k),
		"O(k·n^{1+1/k})", er.N(), er.M(), bs.M(), "O(k)", verdict(violR == nil))

	// Row 3: any graph, (1, 0)-spanner — trivially all edges.
	t.AddRow("any graph", "(1,0)-span. (all edges)", "m", er.N(), er.M(), er.M(), "—", "PASS")

	// Row 4: any graph, k-connecting (1, 0)-remote-spanner (Th. 2).
	kc := spanner.KConnecting(er, 2)
	violK := spanner.Check(er, kc.Graph(), spanner.NewStretch(1, 0))
	t.AddRow("any graph", "2-conn. (1,0)-rem.-span. (Th. 2)",
		"O(log n)·opt", er.N(), er.M(), kc.Edges(), "O(1)", verdict(violK == nil))

	// Row 5: random UDG, (1, 0)-remote-spanner (Th. 2 + [14]).
	rngU := cfg.rng(5)
	udg := udgWithN(nUDG, 4, rngU)
	ex := spanner.Exact(udg)
	violU := spanner.Check(udg, ex.Graph(), spanner.NewStretch(1, 0))
	bound := math.Pow(float64(udg.N()), 4.0/3) * math.Log(float64(udg.N()))
	t.AddRow("rand. UDG", "(1,0)-rem.-span. (Th. 2)",
		"O(n^{4/3} log n)", udg.N(), udg.M(), ex.Edges(), "O(1)",
		verdict(violU == nil && float64(ex.Edges()) < bound))

	// Row 6: UBG with known distances, (1+ε, 0)-spanner [9] —
	// substituted by the greedy (1+ε)-spanner on the weighted UBG.
	rngB := cfg.rng(6)
	_, m6 := ubgPoints(nUBG, 2, math.Sqrt(float64(nUBG)/24), rngB)
	gt := baseline.GreedyTSpanner(m6, 1.0, 1.5)
	i6, j6 := baseline.VerifyStretch(gt, m6, 1.0, 1.5)
	t.AddRow("UBG known dist.", "(1+ε,0)-span. [9]→greedy, ε=1/2",
		"O(n)", m6.Len(), "—", gt.M(), "O(log* n)", verdict(i6 == -1 && j6 == -1))

	// Row 7: UBG with unknown distances, (1+ε, 1−2ε)-remote-spanner
	// (Th. 1) on the same point set.
	g7, _ := ubgPoints(nUBG, 2, math.Sqrt(float64(nUBG)/24), cfg.rng(6))
	low := spanner.LowStretch(g7, 0.5)
	viol7 := spanner.Check(g7, low.Graph(), spanner.LowStretchOf(low.R))
	t.AddRow("UBG unknown dist.", "(1+ε,1−2ε)-rem.-span. (Th. 1), ε=1/2",
		"O(n)", g7.N(), g7.M(), low.Edges(), "O(1)", verdict(viol7 == nil))

	// Row 8: points in R^d, k-fault-tolerant (1+ε, 0)-spanner [8] —
	// substituted by the certificate-greedy FT spanner.
	rng8 := cfg.rng(8)
	_, m8 := ubgPoints(nPts, 2, 2.0, rng8)
	ft := baseline.FaultTolerantGreedy(m8, 1.5, 2)
	i8, j8 := baseline.VerifyStretch(ft, m8, math.Inf(1), 1.5)
	t.AddRow("points in R^d", "2-fault-tol. (1+ε,0)-span. [8]→greedy",
		"O(k·n)", m8.Len(), "—", ft.M(), "seq.", verdict(i8 == -1 && j8 == -1))

	// Row 9: UBG unknown distances, 2-connecting (2,−1)-remote-spanner
	// (Th. 3).
	g9, _ := ubgPoints(nUBG, 2, math.Sqrt(float64(nUBG)/24), cfg.rng(6))
	two := spanner.TwoConnecting(g9)
	viol9 := spanner.Check(g9, two.Graph(), spanner.NewStretch(2, -1))
	t.AddRow("UBG unknown dist.", "2-conn. (2,−1)-rem.-span. (Th. 3)",
		"O(n)", g9.N(), g9.M(), two.Edges(), "O(1)", verdict(viol9 == nil))

	t.AddNote("size bounds quoted from the paper; edges measured on the instances above")
	t.AddNote("rows 1, 6, 8 use the substitutions documented in DESIGN.md §3")
	return t, nil
}

// spannerEdgesOK verifies the multiplicative spanner stretch on every
// graph edge (sufficient for all pairs).
func spannerEdgesOK(g, h *graph.Graph, stretch int) bool {
	scratch := graph.NewBFSScratch(g.N())
	ok := true
	g.EachEdge(func(u, v int) {
		if !ok {
			return
		}
		dist, _, _ := scratch.BoundedView(h, u, stretch)
		if dist[v] == graph.Unreached || int(dist[v]) > stretch {
			ok = false
		}
	})
	return ok
}
