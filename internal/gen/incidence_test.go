package gen

import (
	"testing"

	"remspan/internal/graph"
	"remspan/internal/reference"
)

func TestProjectivePlaneStructure(t *testing.T) {
	for _, q := range []int{2, 3, 5, 7} {
		g := ProjectivePlane(q)
		k := q*q + q + 1
		if g.N() != 2*k {
			t.Fatalf("q=%d: n=%d, want %d", q, g.N(), 2*k)
		}
		if g.M() != (q+1)*k {
			t.Fatalf("q=%d: m=%d, want %d", q, g.M(), (q+1)*k)
		}
		// (q+1)-regular.
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) != q+1 {
				t.Fatalf("q=%d: degree(%d)=%d, want %d", q, v, g.Degree(v), q+1)
			}
		}
		// Bipartite: no point–point or line–line edges.
		g.EachEdge(func(u, v int) {
			if (u < k) == (v < k) {
				t.Fatalf("q=%d: same-side edge {%d,%d}", q, u, v)
			}
		})
	}
}

func TestProjectivePlaneC4Free(t *testing.T) {
	// Any two vertices share at most one common neighbor (axioms of the
	// projective plane: two points lie on exactly one line and dually).
	g := ProjectivePlane(3)
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if cn := g.CommonNeighbors(u, v); len(cn) > 1 {
				t.Fatalf("vertices %d,%d share %d neighbors", u, v, len(cn))
			}
		}
	}
}

func TestProjectivePlaneGirthSix(t *testing.T) {
	g := ProjectivePlane(3)
	// girth > 4 follows from C4-freeness + bipartite (no odd cycles);
	// a 6-cycle must exist (triangle of points in general position).
	// Check: some pair at distance 3 closes a 6-cycle — equivalently
	// diameter is 3 and there exist two internally disjoint 3-paths.
	if d := reference.Diameter(g); d != 3 {
		t.Fatalf("diameter=%d, want 3", d)
	}
}

func TestProjectivePlaneConnected(t *testing.T) {
	if !graph.IsConnected(ProjectivePlane(5)) {
		t.Fatal("PG(2,5) incidence graph disconnected")
	}
}

func TestProjectivePlaneRejectsComposite(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for composite q")
		}
	}()
	ProjectivePlane(4)
}

func TestFriendshipGraph(t *testing.T) {
	g := FriendshipGraph(4)
	if g.N() != 9 || g.M() != 12 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if g.Degree(0) != 8 {
		t.Fatalf("hub degree %d", g.Degree(0))
	}
	// Exactly one common neighbor for every pair.
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if cn := g.CommonNeighbors(u, v); len(cn) > 1 {
				t.Fatalf("pair %d,%d shares %d neighbors", u, v, len(cn))
			}
		}
	}
}
