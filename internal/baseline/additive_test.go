package baseline

import (
	"math"
	"math/rand"
	"testing"

	"remspan/internal/gen"
	"remspan/internal/graph"
	"remspan/internal/reference"
	"remspan/internal/spanner"
)

// verifyAdditive checks d_H(u, v) ≤ d_G(u, v) + beta for all pairs,
// returning a violating pair or (-1, -1).
func verifyAdditive(g, h *graph.Graph, beta int) (int, int) {
	for u := 0; u < g.N(); u++ {
		dg := graph.BFS(g, u)
		dh := graph.BFS(h, u)
		for v := 0; v < g.N(); v++ {
			if dg[v] == graph.Unreached {
				continue
			}
			if dh[v] == graph.Unreached || dh[v] > dg[v]+int32(beta) {
				return u, v
			}
		}
	}
	return -1, -1
}

func TestAdditive2Stretch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		g := gen.ErdosRenyi(60+rng.Intn(60), 0.15, rng)
		h := Additive2(g)
		if u, v := verifyAdditive(g, h, 2); u != -1 {
			dg := graph.BFS(g, u)[v]
			dh := graph.BFS(h, u)[v]
			t.Fatalf("trial %d: pair (%d,%d) d_G=%d d_H=%d", trial, u, v, dg, dh)
		}
		if h.M() > g.M() {
			t.Fatal("spanner larger than graph")
		}
	}
}

func TestAdditive2SparsifiesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := gen.ErdosRenyi(220, 0.5, rng) // ~12k edges
	h := Additive2(g)
	n := float64(g.N())
	bound := 2 * math.Pow(n, 1.5) * math.Log(n)
	if float64(h.M()) > bound {
		t.Fatalf("additive spanner %d edges exceeds O(n^{3/2} log n) ≈ %.0f", h.M(), bound)
	}
	if h.M() >= g.M() {
		t.Fatalf("no sparsification on dense input: %d of %d", h.M(), g.M())
	}
}

func TestAdditive2OnSparseKeepsAll(t *testing.T) {
	// All degrees < √n: every edge is low-degree, spanner = graph.
	g := gen.Ring(30)
	h := Additive2(g)
	if !reference.Equal(h, g) {
		t.Fatal("ring spanner should keep every edge")
	}
}

func TestAdditive2AsRemoteSpanner(t *testing.T) {
	// §1.2 adapter: a (1,2)-spanner is a (1, 2)-remote-spanner
	// (β − α + 1 = 2).
	rng := rand.New(rand.NewSource(3))
	g := gen.ErdosRenyi(100, 0.2, rng)
	keep, _ := graph.LargestComponent(g)
	g = g.InducedSubgraph(keep)
	h := Additive2(g)
	alpha, beta := RemoteStretch(1, 2)
	if alpha != 1 || beta != 2 {
		t.Fatalf("adapter gave (%d,%d)", alpha, beta)
	}
	if v := spanner.Check(g, h, spanner.NewStretch(alpha, beta)); v != nil {
		t.Fatalf("%v", v)
	}
}

func TestAdditive2EmptyAndTiny(t *testing.T) {
	if h := Additive2(graph.New(0)); h.N() != 0 {
		t.Fatal("empty graph")
	}
	g := reference.Complete(3)
	h := Additive2(g)
	if u, v := verifyAdditive(g, h, 2); u != -1 {
		t.Fatalf("K3 violation at (%d,%d)", u, v)
	}
}
