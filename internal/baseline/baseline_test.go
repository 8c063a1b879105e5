package baseline

import (
	"math"
	"math/rand"
	"testing"

	"remspan/internal/gen"
	"remspan/internal/geom"
	"remspan/internal/graph"
	"remspan/internal/reference"
	"remspan/internal/spanner"
)

// checkSpannerStretch verifies d_H(u,v) <= t for every edge (u,v) of g,
// which implies d_H <= t·d_G for all pairs.
func checkSpannerStretch(t *testing.T, g, h *graph.Graph, stretch int) {
	t.Helper()
	scratch := graph.NewBFSScratch(g.N())
	bad := 0
	g.EachEdge(func(u, v int) {
		dist, _, _ := scratch.BoundedView(h, u, stretch)
		if dist[v] == graph.Unreached || int(dist[v]) > stretch {
			bad++
		}
	})
	if bad > 0 {
		t.Fatalf("%d edges violate stretch %d", bad, stretch)
	}
}

func TestGreedySpannerStretch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		g := gen.ErdosRenyi(40+rng.Intn(40), 0.2, rng)
		for _, k := range []int{1, 2, 3} {
			h := GreedySpanner(g, 2*k-1)
			checkSpannerStretch(t, g, h, 2*k-1)
			if h.M() > g.M() {
				t.Fatal("spanner larger than graph")
			}
		}
	}
}

func TestGreedySpannerStretch1KeepsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := gen.ErdosRenyi(30, 0.3, rng)
	h := GreedySpanner(g, 1)
	if h.M() != g.M() {
		t.Fatalf("t=1 spanner dropped edges: %d vs %d", h.M(), g.M())
	}
}

func TestGreedySpannerSparsifiesDense(t *testing.T) {
	g := reference.Complete(40)
	h := GreedySpanner(g, 3)
	// A 3-spanner of K_n: one vertex's star suffices; greedy gets close.
	if h.M() > 5*40 {
		t.Fatalf("3-spanner of K40 has %d edges", h.M())
	}
}

func TestBaswanaSenStretch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		g := gen.ErdosRenyi(50+rng.Intn(50), 0.15, rng)
		for _, k := range []int{1, 2, 3} {
			h := BaswanaSen(g, k, rng)
			checkSpannerStretch(t, g, h, 2*k-1)
			if !graph.NewCSR(h).SubsetOf(graph.NewCSR(g)) {
				t.Fatal("spanner has phantom edges")
			}
		}
	}
}

func TestBaswanaSenK1IsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := gen.ErdosRenyi(30, 0.2, rng)
	h := BaswanaSen(g, 1, rng)
	if !reference.Equal(h, g) {
		t.Fatal("k=1 must keep all edges")
	}
}

func TestBaswanaSenDeterministicWithSeed(t *testing.T) {
	g := gen.ErdosRenyi(60, 0.2, rand.New(rand.NewSource(5)))
	a := BaswanaSen(g, 3, rand.New(rand.NewSource(42)))
	b := BaswanaSen(g, 3, rand.New(rand.NewSource(42)))
	if !reference.Equal(a, b) {
		t.Fatal("same seed gave different spanners")
	}
}

func TestBaswanaSenSparsifies(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := gen.ErdosRenyi(200, 0.3, rng) // ~6000 edges
	h := BaswanaSen(g, 2, rng)
	// O(k n^{3/2}) ≈ 2·200·14 ≈ 5700; require substantial reduction.
	if float64(h.M()) > 0.8*float64(g.M()) {
		t.Fatalf("k=2 spanner barely sparsified: %d of %d", h.M(), g.M())
	}
}

func TestSpannerIsRemoteSpanner(t *testing.T) {
	// §1.2 / R12: an (α, 0)-spanner is an (α, 1−α)-remote-spanner.
	rng := rand.New(rand.NewSource(7))
	g := gen.ErdosRenyi(60, 0.15, rng)
	keep, _ := graph.LargestComponent(g)
	g = g.InducedSubgraph(keep)
	for _, k := range []int{2, 3} {
		h := BaswanaSen(g, k, rng)
		alpha, beta := RemoteStretch(int64(2*k-1), 0)
		if alpha != int64(2*k-1) || beta != int64(2-2*k) {
			t.Fatalf("RemoteStretch wrong: %d %d", alpha, beta)
		}
		if v := spanner.Check(g, h, spanner.NewStretch(alpha, beta)); v != nil {
			t.Fatalf("k=%d: %v", k, v)
		}
	}
}

func TestGreedyTSpannerStretch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := geom.UniformBox(80, 2, 3, rng)
	m := geom.EuclideanMetric{Points: pts}
	for _, t0 := range []float64{1.2, 1.5, 2.0} {
		s := GreedyTSpanner(m, 1.0, t0)
		if i, j := VerifyStretch(s, m, 1.0, t0); i != -1 {
			t.Fatalf("t=%v: pair (%d,%d) violates stretch", t0, i, j)
		}
	}
}

func TestGreedyTSpannerLinearOnDoubling(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := geom.UniformBox(250, 2, 3, rng)
	m := geom.EuclideanMetric{Points: pts}
	s := GreedyTSpanner(m, 1.0, 1.5)
	// Bounded average degree on doubling metrics.
	if s.M() > 12*m.Len() {
		t.Fatalf("greedy 1.5-spanner has %d edges for %d points", s.M(), m.Len())
	}
	edges := geom.BallGraphEdges(m, 1.0)
	if s.M() >= len(edges) {
		t.Fatalf("no sparsification: %d of %d", s.M(), len(edges))
	}
}

func TestFaultTolerantGreedyStretch(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pts := geom.UniformBox(40, 2, 2, rng)
	m := geom.EuclideanMetric{Points: pts}
	tt := 1.8
	s := FaultTolerantGreedy(m, tt, 1)
	if i, j := VerifyStretch(s, m, math.Inf(1), tt); i != -1 {
		t.Fatalf("pair (%d,%d) violates stretch without faults", i, j)
	}
}

func TestFaultTolerantGreedySurvivesFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := geom.UniformBox(35, 2, 2, rng)
	m := geom.EuclideanMetric{Points: pts}
	tt := 2.0
	k := 1
	s := FaultTolerantGreedy(m, tt, k)
	// Delete each single vertex; all remaining pairs must keep stretch.
	blocked := make([]bool, m.Len())
	for f := 0; f < m.Len(); f++ {
		for i := range blocked {
			blocked[i] = false
		}
		blocked[f] = true
		for i := 0; i < m.Len(); i++ {
			for j := i + 1; j < m.Len(); j++ {
				if i == f || j == f {
					continue
				}
				d := m.Dist(i, j)
				if s.dijkstra(i, j, tt*d*(1+1e-9), blocked) > tt*d*(1+1e-9) {
					t.Fatalf("fault %d breaks pair (%d,%d)", f, i, j)
				}
			}
		}
	}
}

func TestFaultToleranceGrowsSize(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pts := geom.UniformBox(40, 2, 2, rng)
	m := geom.EuclideanMetric{Points: pts}
	s0 := FaultTolerantGreedy(m, 1.7, 0)
	s2 := FaultTolerantGreedy(m, 1.7, 2)
	if s2.M() <= s0.M() {
		t.Fatalf("k=2 spanner (%d) not larger than k=0 (%d)", s2.M(), s0.M())
	}
}
