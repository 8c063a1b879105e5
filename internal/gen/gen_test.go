package gen

import (
	"math/rand"
	"testing"

	"remspan/internal/graph"
	"remspan/internal/reference"
)

func TestErdosRenyiExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if g := ErdosRenyi(10, 0, rng); g.M() != 0 {
		t.Fatalf("p=0 gave %d edges", g.M())
	}
	if g := ErdosRenyi(10, 1, rng); g.M() != 45 {
		t.Fatalf("p=1 gave %d edges, want 45", g.M())
	}
}

func TestErdosRenyiDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := ErdosRenyi(200, 0.1, rng)
	expect := 0.1 * 199 * 100 // p * C(200,2)
	if f := float64(g.M()); f < 0.7*expect || f > 1.3*expect {
		t.Fatalf("m=%d, expected around %.0f", g.M(), expect)
	}
}

func TestGNM(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := reference.GNM(20, 50, rng)
	if g.M() != 50 {
		t.Fatalf("m=%d, want 50", g.M())
	}
	// Clamp above max possible.
	g2 := reference.GNM(5, 100, rng)
	if g2.M() != 10 {
		t.Fatalf("clamped m=%d, want 10", g2.M())
	}
}

func TestPathRingStar(t *testing.T) {
	p := Path(5)
	if p.M() != 4 || p.Degree(0) != 1 || p.Degree(2) != 2 {
		t.Fatal("bad path")
	}
	r := Ring(5)
	if r.M() != 5 {
		t.Fatalf("ring m=%d, want 5", r.M())
	}
	for v := 0; v < 5; v++ {
		if r.Degree(v) != 2 {
			t.Fatalf("ring degree(%d)=%d", v, r.Degree(v))
		}
	}
	s := reference.Star(6)
	if s.M() != 5 || s.Degree(0) != 5 {
		t.Fatal("bad star")
	}
}

func TestComplete(t *testing.T) {
	k := reference.Complete(6)
	if k.M() != 15 {
		t.Fatalf("m=%d, want 15", k.M())
	}
	if reference.Diameter(k) != 1 {
		t.Fatal("complete graph diameter != 1")
	}
}

func TestGrid(t *testing.T) {
	g := Grid(4, 3)
	if g.N() != 12 {
		t.Fatalf("n=%d, want 12", g.N())
	}
	// edges: 3 rows * 3 horizontal + 2 * 4 vertical = 9 + 8 = 17
	if g.M() != 17 {
		t.Fatalf("m=%d, want 17", g.M())
	}
	if reference.Diameter(g) != 5 {
		t.Fatalf("diam=%d, want 5", reference.Diameter(g))
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 || g.M() != 32 {
		t.Fatalf("n=%d m=%d, want 16, 32", g.N(), g.M())
	}
	for v := 0; v < 16; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("degree(%d)=%d, want 4", v, g.Degree(v))
		}
	}
	if reference.Diameter(g) != 4 {
		t.Fatal("Q4 diameter should be 4")
	}
}

func TestRandomTree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(40)
		g := RandomTree(n, rng)
		if g.M() != n-1 {
			t.Fatalf("tree m=%d, want %d", g.M(), n-1)
		}
		if !graph.IsConnected(g) {
			t.Fatal("tree disconnected")
		}
	}
}

func TestPetersen(t *testing.T) {
	g := reference.Petersen()
	if g.N() != 10 || g.M() != 15 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	for v := 0; v < 10; v++ {
		if g.Degree(v) != 3 {
			t.Fatalf("degree(%d)=%d, want 3", v, g.Degree(v))
		}
	}
	if reference.Diameter(g) != 2 {
		t.Fatalf("Petersen diameter = %d, want 2", reference.Diameter(g))
	}
}

func TestBarbell(t *testing.T) {
	g := reference.Barbell(4, 3)
	// n = 2*4 + 3 - 1 = 10
	if g.N() != 10 {
		t.Fatalf("n=%d, want 10", g.N())
	}
	if !graph.IsConnected(g) {
		t.Fatal("barbell disconnected")
	}
	// two K4 = 12 edges + path of 3 edges
	if g.M() != 15 {
		t.Fatalf("m=%d, want 15", g.M())
	}
}

func TestDeterminism(t *testing.T) {
	a := ErdosRenyi(50, 0.2, rand.New(rand.NewSource(9)))
	b := ErdosRenyi(50, 0.2, rand.New(rand.NewSource(9)))
	if !reference.Equal(a, b) {
		t.Fatal("same seed produced different graphs")
	}
}
