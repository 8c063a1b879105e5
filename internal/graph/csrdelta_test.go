package graph

import (
	"math/rand"
	"testing"

	"remspan/internal/testutil"
)

// sameView asserts v and g expose identical adjacency.
func sameView(t *testing.T, v View, g *Graph) {
	t.Helper()
	if v.N() != g.N() || v.M() != g.M() {
		t.Fatalf("shape mismatch: view (%d,%d) vs graph (%d,%d)", v.N(), v.M(), g.N(), g.M())
	}
	for u := 0; u < g.N(); u++ {
		a, b := v.Neighbors(u), g.Neighbors(u)
		if len(a) != len(b) {
			t.Fatalf("vertex %d: degree %d vs %d", u, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d: row %v vs %v", u, a, b)
			}
		}
	}
}

func TestCSRDeltaMatchesFreshCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 60
	g := New(n)
	for i := 0; i < 120; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	d := NewCSRDelta(NewCSR(g))
	sameView(t, d, g)

	for step := 0; step < 400; step++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if g.HasEdge(u, v) {
			if !d.RemoveEdge(u, v) || d.inRow(u, v) {
				t.Fatalf("step %d: remove {%d,%d} failed", step, u, v)
			}
			g.RemoveEdge(u, v)
		} else {
			got := d.AddEdge(u, v)
			want := g.AddEdge(u, v)
			if got != want {
				t.Fatalf("step %d: add {%d,%d} reported %v, want %v", step, u, v, got, want)
			}
		}
		if step%37 == 0 {
			sameView(t, d, g)
			// A patched delta must read exactly like a fresh snapshot.
			sameView(t, NewCSR(g), g)
		}
	}
	sameView(t, d, g)
}

func TestCSRDeltaNoopsAndSelfLoops(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	d := NewCSRDelta(NewCSR(g))
	if d.AddEdge(0, 1) || d.AddEdge(1, 0) {
		t.Fatal("duplicate edge accepted")
	}
	if d.AddEdge(2, 2) {
		t.Fatal("self loop accepted")
	}
	if d.RemoveEdge(0, 3) {
		t.Fatal("phantom edge removed")
	}
	if d.M() != 2 {
		t.Fatalf("m=%d", d.M())
	}
}

// A steady-state edge toggle on an already-touched vertex pair must not
// allocate — the guarantee that makes maintainer churn allocation-free.
func TestCSRDeltaToggleSteadyStateAllocs(t *testing.T) {
	g := New(1000)
	for u := 0; u < 999; u++ {
		g.AddEdge(u, u+1)
	}
	d := NewCSRDelta(NewCSR(g))
	d.AddEdge(10, 500) // warm the two rows
	d.RemoveEdge(10, 500)
	testutil.PinAllocs(t, "steady-state toggle", 100, func() {
		d.AddEdge(10, 500)
		d.RemoveEdge(10, 500)
	})
}
