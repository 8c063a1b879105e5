package graph_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"remspan/internal/graph"
	"remspan/internal/reference"
)

// The tests below check graph against internal/reference's oracles:
// graph equality, the tree consistency check and all-pairs distances,
// which production never runs. They sit in package graph_test because
// reference imports graph.

func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestEqual(t *testing.T) {
	a := graph.New(3)
	a.AddEdge(0, 1)
	b := graph.New(3)
	b.AddEdge(0, 1)
	if !reference.Equal(a, b) {
		t.Fatal("equal graphs reported unequal")
	}
	b.AddEdge(1, 2)
	if reference.Equal(a, b) {
		t.Fatal("unequal graphs reported equal")
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	g := pathGraph(6)
	if e := reference.Eccentricity(g, 0); e != 5 {
		t.Errorf("ecc(0)=%d, want 5", e)
	}
	if e := reference.Eccentricity(g, 3); e != 3 {
		t.Errorf("ecc(3)=%d, want 3", e)
	}
	if d := reference.Diameter(g); d != 5 {
		t.Errorf("diam=%d, want 5", d)
	}
}

func TestAllPairsSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(12)
		g := graph.New(n)
		for i := 0; i < n*2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		d := reference.AllPairsDistances(g)
		for u := 0; u < n; u++ {
			if d[u][u] != 0 {
				return false
			}
			for v := 0; v < n; v++ {
				if d[u][v] != d[v][u] {
					return false
				}
				// triangle inequality through any edge
				for _, w := range g.Neighbors(v) {
					if d[u][v] != graph.Unreached && d[u][w] != graph.Unreached && d[u][w] > d[u][v]+1 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeAddPath(t *testing.T) {
	g := graph.New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(0, 4)
	g.AddEdge(4, 5)
	parent, _ := graph.BFSTree(g, 0)
	tr := graph.NewTree(6, 0)
	tr.AddPath(parent, 3)
	tr.AddPath(parent, 5)
	tr.AddPath(parent, 3) // idempotent
	if len(tr.Nodes()) != 6 {
		t.Fatalf("size=%d, want 6", len(tr.Nodes()))
	}
	if err := reference.ValidateTree(tr, g); err != nil {
		t.Fatal(err)
	}
	if tr.Depth(3) != 3 || tr.Depth(5) != 2 {
		t.Fatalf("depths wrong: %d %d", tr.Depth(3), tr.Depth(5))
	}
}

func TestTreeEdgesMatchSize(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(20)
		g := graph.New(n)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		parent, dist := graph.BFSTree(g, 0)
		tr := graph.NewTree(n, 0)
		for v := 0; v < n; v++ {
			if dist[v] != graph.Unreached {
				tr.AddPath(parent, v)
			}
		}
		if tr.EdgeCount() != len(tr.Nodes())-1 {
			t.Fatalf("edges=%d size=%d", tr.EdgeCount(), len(tr.Nodes()))
		}
		if len(tr.Edges()) != tr.EdgeCount() {
			t.Fatal("Edges() length mismatch")
		}
		if err := reference.ValidateTree(tr, g); err != nil {
			t.Fatal(err)
		}
		// Depth equals BFS distance when built from BFS parents.
		for v := 0; v < n; v++ {
			if dist[v] != graph.Unreached && tr.Depth(v) != int(dist[v]) {
				t.Fatalf("depth(%d)=%d, want %d", v, tr.Depth(v), dist[v])
			}
		}
	}
}
