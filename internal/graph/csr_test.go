package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCSRMirrorsGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := New(25)
	for i := 0; i < 80; i++ {
		u, v := rng.Intn(25), rng.Intn(25)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	c := NewCSR(g)
	if c.N() != g.N() || c.M() != g.M() {
		t.Fatalf("n=%d/%d m=%d/%d", c.N(), g.N(), c.M(), g.M())
	}
	for u := 0; u < g.N(); u++ {
		if c.Degree(u) != g.Degree(u) {
			t.Fatalf("degree(%d)", u)
		}
		a, b := c.Neighbors(u), g.Neighbors(u)
		for i := range b {
			if a[i] != b[i] {
				t.Fatalf("neighbors(%d) differ", u)
			}
		}
	}
}

func TestCSRBFSMatches(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(25)
		g := New(n)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		c := NewCSR(g)
		s := NewBFSScratch(n)
		for src := 0; src < n; src++ {
			want := BFS(g, src)
			dist, _, _ := s.BoundedView(c, src, n)
			for v := 0; v < n; v++ {
				if dist[v] != want[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCSRSnapshotIsolation(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	c := NewCSR(g)
	g.AddEdge(1, 2)
	if c.M() != 1 {
		t.Fatal("snapshot observed a later mutation")
	}
}

func TestCSREmpty(t *testing.T) {
	c := NewCSR(New(0))
	if c.N() != 0 || c.M() != 0 {
		t.Fatal("empty CSR")
	}
}

func TestCheckEdgeSlotsBoundary(t *testing.T) {
	// The guard itself is unit-tested at the boundary: 2³¹−1 slots is
	// the largest representable layout, one more must panic. The real
	// overflow cannot be materialized (it needs >1 billion edges).
	checkEdgeSlots(maxEdgeSlots) // must not panic
	checkEdgeSlots(0)
	defer func() {
		if recover() == nil {
			t.Fatal("checkEdgeSlots(maxEdgeSlots+1) did not panic")
		}
	}()
	checkEdgeSlots(maxEdgeSlots + 1)
}

func TestNewCSRGuardsOverflow(t *testing.T) {
	// NewCSR must route through the guard; exercised via the helper's
	// boundary above, here we just pin that a normal snapshot passes.
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	c := NewCSR(g)
	if c.M() != 2 {
		t.Fatalf("M = %d, want 2", c.M())
	}
}
