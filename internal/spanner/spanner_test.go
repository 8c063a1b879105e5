package spanner

import (
	"math/rand"
	"testing"

	"remspan/internal/domtree"
	"remspan/internal/gen"
	"remspan/internal/geom"
	"remspan/internal/graph"
	"remspan/internal/reference"
)

func randomConnected(n, extra int, rng *rand.Rand) *graph.Graph {
	g := gen.RandomTree(n, rng)
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

func randomUDG(n int, side, radius float64, rng *rand.Rand) *graph.Graph {
	pts := geom.UniformBox(n, 2, side, rng)
	g := geom.UnitDiskGraph(pts, radius)
	keep, _ := graph.LargestComponent(g)
	return g.InducedSubgraph(keep)
}

func TestExactPreservesDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		g := randomConnected(10+rng.Intn(40), 60, rng)
		h := Exact(g).Graph()
		if !graph.NewCSR(h).SubsetOf(graph.NewCSR(g)) {
			t.Fatal("spanner not a subgraph")
		}
		if v := Check(g, h, NewStretch(1, 0)); v != nil {
			t.Fatalf("trial %d: %v", trial, v)
		}
	}
}

func TestExactSparserThanDenseGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomUDG(300, 3, 1.0, rng)
	if g.N() < 150 {
		t.Skip("degenerate UDG")
	}
	res := Exact(g)
	if res.Edges() >= g.M() {
		t.Fatalf("remote-spanner has %d edges, graph has %d — no savings", res.Edges(), g.M())
	}
}

func TestKConnectingStretch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		g := randomConnected(8+rng.Intn(12), 30, rng)
		for k := 1; k <= 3; k++ {
			res := KConnecting(g, k)
			h := res.Graph()
			// Prop. 5: d^{k'}_{H_s} = d^{k'}_G for all k' <= k.
			if v := CheckKConnecting(g, h, k, NewStretch(1, 0), nil); v != nil {
				t.Fatalf("trial %d k=%d: %v", trial, k, v)
			}
		}
	}
}

func TestTwoConnectingStretch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 8; trial++ {
		g := randomConnected(8+rng.Intn(12), 30, rng)
		res := TwoConnecting(g)
		h := res.Graph()
		// Th. 3 / Prop. 4: 2-connecting (2, −1): d^{k'}_{H_s} ≤ 2·d^{k'}_G − k'.
		if v := CheckKConnecting(g, h, 2, NewStretch(2, -1), nil); v != nil {
			t.Fatalf("trial %d: %v", trial, v)
		}
	}
}

func TestLowStretchRationalGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 12; trial++ {
		g := randomConnected(15+rng.Intn(40), 50, rng)
		for _, eps := range []float64{1.0, 0.5, 0.34, 0.25} {
			res := LowStretch(g, eps)
			h := res.Graph()
			st := LowStretchOf(res.R)
			if v := Check(g, h, st); v != nil {
				t.Fatalf("trial %d eps=%v r=%d: %v", trial, eps, res.R, v)
			}
		}
	}
}

// lowStretchGreedy is LowStretch built from Algorithm 1 greedy
// (r, 1)-dominating trees instead of MIS trees: same stretch guarantee,
// with the Prop. 2 per-tree approximation bound (at the cost of a
// log Δ factor in size). No production caller: the tests pin its
// guarantee, and BenchmarkAblationGreedyVsMIS prices the trade.
func lowStretchGreedy(g *graph.Graph, eps float64) *Result {
	r, epsEff := RadiusFor(eps)
	res := buildParallel(g, func(c graph.View, s *domtree.Scratch, u int) *graph.Tree {
		return domtree.GreedyCSR(c, s, u, r, 1)
	})
	res.R = r
	res.EpsEff = epsEff
	return res
}

func TestLowStretchGreedyGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		g := randomConnected(15+rng.Intn(30), 40, rng)
		res := lowStretchGreedy(g, 0.5)
		h := res.Graph()
		if v := Check(g, h, LowStretchOf(res.R)); v != nil {
			t.Fatalf("trial %d: %v", trial, v)
		}
	}
}

// BenchmarkAblationGreedyVsMIS compares Greedy (Alg. 1) and MIS (Alg. 2)
// dominating trees for the low-stretch construction: the log Δ
// approximation guarantee vs the doubling-size guarantee.
func BenchmarkAblationGreedyVsMIS(b *testing.B) {
	g := randomUDG(350, 4, 1, rand.New(rand.NewSource(1)))
	b.Run("greedy-trees", func(b *testing.B) {
		var edges int
		for i := 0; i < b.N; i++ {
			edges = lowStretchGreedy(g, 0.5).Edges()
		}
		b.ReportMetric(float64(edges), "edges")
	})
	b.Run("mis-trees", func(b *testing.B) {
		var edges int
		for i := 0; i < b.N; i++ {
			edges = LowStretch(g, 0.5).Edges()
		}
		b.ReportMetric(float64(edges), "edges")
	})
}

func TestRadiusFor(t *testing.T) {
	cases := []struct {
		eps    float64
		r      int
		epsEff float64
	}{
		{1.0, 2, 1.0},
		{0.5, 3, 0.5},
		{0.4, 4, 1.0 / 3},
		{0.25, 5, 0.25},
		{0.1, 11, 0.1},
	}
	for _, c := range cases {
		r, eff := RadiusFor(c.eps)
		if r != c.r {
			t.Errorf("eps=%v: r=%d, want %d", c.eps, r, c.r)
		}
		if diff := eff - c.epsEff; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("eps=%v: eff=%v, want %v", c.eps, eff, c.epsEff)
		}
	}
}

func TestStretchHoldsExactArithmetic(t *testing.T) {
	// (4/3, 1/3): dh ≤ 4/3·dg + 1/3  ⟺  3dh ≤ 4dg + 1.
	st := LowStretchOf(4) // ε' = 1/3
	if st.AlphaNum != 4 || st.AlphaDen != 3 || st.BetaNum != 1 || st.BetaDen != 3 {
		t.Fatalf("LowStretchOf(4) = %v", st)
	}
	cases := []struct {
		dg, dh int64
		ok     bool
	}{
		{2, 3, true},  // 9 ≤ 9
		{2, 4, false}, // 12 > 9
		{3, 4, true},  // 12 ≤ 13
		{3, 5, false},
		{6, 8, true}, // 24 ≤ 25
		{6, 9, false},
	}
	for _, c := range cases {
		if got := st.Holds(c.dg, c.dh); got != c.ok {
			t.Errorf("Holds(%d,%d)=%v, want %v", c.dg, c.dh, got, c.ok)
		}
	}
	if s := st.String(); s != "(4/3, 1/3)" {
		t.Errorf("String() = %q", s)
	}
	if s := NewStretch(2, -1).String(); s != "(2, -1)" {
		t.Errorf("String() = %q", s)
	}
}

func TestViewBFSMatchesMaterializedView(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		g := randomConnected(10+rng.Intn(20), 25, rng)
		res := Exact(g)
		h := res.Graph()
		cg, ch := graph.NewCSR(g), graph.NewCSR(h)
		vs := NewViewScratch(g.N())
		for u := 0; u < g.N(); u++ {
			hu := View(g, h, u)
			want := graph.BFS(hu, u)
			got1 := ViewBFS(g, h, u)
			got2 := vs.BFSCSR(cg, ch, u)
			for v := 0; v < g.N(); v++ {
				if got1[v] != want[v] || got2[v] != want[v] {
					t.Fatalf("trial %d u=%d v=%d: view BFS %d/%d vs %d",
						trial, u, v, got1[v], got2[v], want[v])
				}
			}
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomConnected(60, 120, rng)
	par := Exact(g)
	ser, serSizes := reference.Union(g, func(u int, s *graph.BFSScratch) *graph.Tree {
		return reference.KGreedy(g, u, 1)
	})
	if par.Edges() != ser.Len() {
		t.Fatalf("parallel %d edges, serial %d", par.Edges(), ser.Len())
	}
	pe, se := par.H.Edges(), ser.Edges()
	for i := range pe {
		if pe[i] != se[i] {
			t.Fatal("edge sets differ")
		}
	}
	for u := range par.TreeEdges {
		if par.TreeEdges[u] != serSizes[u] {
			t.Fatalf("tree size at %d differs", u)
		}
	}
}

func TestCheckDetectsViolations(t *testing.T) {
	// Empty spanner on a path: d_{H_u}(0, 3) is infinite.
	g := gen.Path(5)
	h := graph.New(5)
	v := Check(g, h, NewStretch(1, 0))
	if v == nil {
		t.Fatal("empty spanner accepted")
	}
	// A BFS tree from 0 is NOT a (1,0)-remote-spanner in general, but
	// on a path it is; use a cycle instead.
	c := gen.Ring(8)
	h2 := graph.New(8)
	for i := 0; i < 7; i++ {
		h2.AddEdge(i, i+1) // drop the closing edge {7,0}
	}
	// From u=2, H_u misses 7-0, so d_{H_2}(2, 7) = 5+... in H_2:
	// 2's own edges present (1-2, 2-3), path to 7 via 3..7 length 5;
	// d_G = 3 (2-1-0-7). 5 > 3 violates (1,0).
	if v := Check(c, h2, NewStretch(1, 0)); v == nil {
		t.Fatal("broken cycle spanner accepted as (1,0)")
	}
}

func TestMeasureProfile(t *testing.T) {
	g := gen.Ring(8)
	full := g.Clone()
	p := MeasureProfile(g, full)
	if p.MaxStretch != 1 || p.MaxAdd != 0 {
		t.Fatalf("full graph profile %+v", p)
	}
	if p.Pairs == 0 {
		t.Fatal("no pairs measured")
	}
	res := TwoConnecting(g)
	p2 := MeasureProfile(g, res.Graph())
	if p2.MaxStretch > 2.0 {
		t.Fatalf("2-connecting profile exceeds multiplicative 2: %+v", p2)
	}
}

func TestCheckKConnectingWithPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomConnected(20, 40, rng)
	res := KConnecting(g, 2)
	h := res.Graph()
	pairs := [][2]int{{0, 5}, {3, 19}, {7, 7}, {1, 2}}
	if v := CheckKConnecting(g, h, 2, NewStretch(1, 0), pairs); v != nil {
		t.Fatalf("%v", v)
	}
}
