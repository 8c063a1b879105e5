package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("got n=%d m=%d, want 5, 0", g.N(), g.M())
	}
	for v := 0; v < 5; v++ {
		if g.Degree(v) != 0 {
			t.Errorf("vertex %d degree %d, want 0", v, g.Degree(v))
		}
	}
}

func TestAddEdgeBasic(t *testing.T) {
	g := New(4)
	if !g.AddEdge(0, 1) {
		t.Fatal("AddEdge(0,1) = false, want true")
	}
	if g.AddEdge(1, 0) {
		t.Fatal("duplicate reversed edge accepted")
	}
	if g.AddEdge(2, 2) {
		t.Fatal("self loop accepted")
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("HasEdge not symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge")
	}
	if g.M() != 1 {
		t.Fatalf("m=%d, want 1", g.M())
	}
}

func TestAddEdgeKeepsAdjacencySorted(t *testing.T) {
	g := New(10)
	for _, v := range []int{7, 3, 9, 1, 5} {
		g.AddEdge(0, v)
	}
	nb := g.Neighbors(0)
	for i := 1; i < len(nb); i++ {
		if nb[i-1] >= nb[i] {
			t.Fatalf("adjacency not sorted: %v", nb)
		}
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if !g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge existing = false")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge removed twice")
	}
	if g.HasEdge(0, 1) || g.M() != 1 {
		t.Fatalf("edge not removed, m=%d", g.M())
	}
	if !g.HasEdge(1, 2) {
		t.Fatal("unrelated edge lost")
	}
}

func TestDegreeAndMaxDegree(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	g.AddEdge(1, 2)
	if g.Degree(0) != 3 {
		t.Errorf("deg(0)=%d, want 3", g.Degree(0))
	}
	if g.MaxDegree() != 3 {
		t.Errorf("maxdeg=%d, want 3", g.MaxDegree())
	}
	if got := g.AvgDegree(); got != 8.0/5.0 {
		t.Errorf("avgdeg=%v, want 1.6", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Fatal("clone aliases original")
	}
	if !c.HasEdge(0, 1) {
		t.Fatal("clone lost edge")
	}
}

func TestEdgesOrderAndCount(t *testing.T) {
	g := New(4)
	g.AddEdge(2, 3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 3)
	es := g.Edges()
	if len(es) != 3 {
		t.Fatalf("got %d edges, want 3", len(es))
	}
	want := [][2]int32{{0, 1}, {1, 3}, {2, 3}}
	for i, e := range es {
		if e != want[i] {
			t.Errorf("edge %d = %v, want %v", i, e, want[i])
		}
	}
}

func TestCommonNeighbors(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	g.AddEdge(0, 4)
	g.AddEdge(1, 3)
	g.AddEdge(1, 4)
	g.AddEdge(1, 5)
	cn := g.CommonNeighbors(0, 1)
	if len(cn) != 2 || cn[0] != 3 || cn[1] != 4 {
		t.Fatalf("common = %v, want [3 4]", cn)
	}
	if got := g.CommonNeighbors(2, 5); len(got) != 0 {
		t.Fatalf("common(2,5) = %v, want empty", got)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	keep := []bool{true, true, false, true}
	s := g.InducedSubgraph(keep)
	if s.M() != 1 || !s.HasEdge(0, 1) {
		t.Fatalf("induced subgraph wrong: m=%d", s.M())
	}
}

func TestRemoveVertex(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	h := g.RemoveVertex(1)
	if h.M() != 0 {
		t.Fatalf("m=%d after removing hub, want 0", h.M())
	}
	if g.M() != 3 {
		t.Fatal("RemoveVertex mutated the original")
	}
}

func TestEqual(t *testing.T) {
	a := New(3)
	a.AddEdge(0, 1)
	b := New(3)
	b.AddEdge(0, 1)
	if !a.Equal(b) {
		t.Fatal("equal graphs reported unequal")
	}
	b.AddEdge(1, 2)
	if a.Equal(b) {
		t.Fatal("unequal graphs reported equal")
	}
}

func TestFromEdgesIgnoresBadInput(t *testing.T) {
	g := FromEdges(3, [][2]int{{0, 1}, {0, 1}, {1, 1}, {1, 2}})
	if g.M() != 2 {
		t.Fatalf("m=%d, want 2", g.M())
	}
}

// Property: edge count always equals half the degree sum, HasEdge
// agrees with Edges(), under random edge insertions and deletions.
func TestQuickInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := New(n)
		type op struct{ u, v int }
		present := map[op]bool{}
		for i := 0; i < 100; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if rng.Intn(3) == 0 {
				g.RemoveEdge(u, v)
				delete(present, op{u, v})
			} else {
				g.AddEdge(u, v)
				present[op{u, v}] = true
			}
		}
		if g.M() != len(present) {
			return false
		}
		degSum := 0
		for v := 0; v < n; v++ {
			degSum += g.Degree(v)
		}
		if degSum != 2*g.M() {
			return false
		}
		for e := range present {
			if !g.HasEdge(e.u, e.v) {
				return false
			}
		}
		return len(g.Edges()) == g.M()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	g := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range vertex")
		}
	}()
	g.AddEdge(0, 5)
}

// TestSlabCloneRowIndependence pins the capacity-clipping of the slab
// rows: growing one row of a clone (or FromView materialization) must
// not clobber the next row's storage.
func TestSlabCloneRowIndependence(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	c := g.Clone()
	c.AddEdge(0, 3) // grows rows 0 and 3, adjacent slab neighbors
	if !c.HasEdge(1, 2) || !c.HasEdge(2, 3) || !c.HasEdge(0, 1) {
		t.Fatal("slab clone corrupted a neighboring row")
	}
	f := FromView(NewCSR(g))
	f.AddEdge(0, 3)
	if !f.HasEdge(1, 2) || !f.HasEdge(2, 3) || !f.HasEdge(0, 1) {
		t.Fatal("slab FromView corrupted a neighboring row")
	}
	if g.HasEdge(0, 3) {
		t.Fatal("clone aliases original")
	}
}
