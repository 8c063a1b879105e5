package domtree

import (
	"math/rand"
	"testing"

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

func TestGreedyProducesDominatingTree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		g := randomConnected(10+rng.Intn(30), 20, rng)
		for _, r := range []int{2, 3, 4} {
			for _, beta := range []int{0, 1} {
				u := rng.Intn(g.N())
				tr := GreedyCSR(g, nil, u, r, beta)
				bad, err := reference.IsDominatingTree(g, tr, r, beta)
				if err != nil {
					t.Fatalf("trial %d r=%d beta=%d: %v", trial, r, beta, err)
				}
				if bad != -1 {
					t.Fatalf("trial %d r=%d beta=%d root=%d: vertex %d not dominated",
						trial, r, beta, u, bad)
				}
			}
		}
	}
}

func TestMISProducesDominatingTree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		g := randomConnected(10+rng.Intn(30), 25, rng)
		for _, r := range []int{2, 3, 5} {
			u := rng.Intn(g.N())
			tr := MISCSR(g, nil, u, r)
			bad, err := reference.IsDominatingTree(g, tr, r, 1)
			if err != nil {
				t.Fatalf("trial %d r=%d: %v", trial, r, err)
			}
			if bad != -1 {
				t.Fatalf("trial %d r=%d root=%d: vertex %d not dominated", trial, r, u, bad)
			}
		}
	}
}

func TestGreedyOnPath(t *testing.T) {
	g := gen.Path(8)
	tr := GreedyCSR(g, nil, 0, 4, 0)
	// On a path the tree must contain vertices 1, 2, 3 to dominate 2, 3, 4.
	bad, err := reference.IsDominatingTree(g, tr, 4, 0)
	if err != nil || bad != -1 {
		t.Fatalf("bad=%d err=%v", bad, err)
	}
	if tr.Contains(7) {
		t.Fatal("tree should stay within radius")
	}
}

func TestMISTreeSmallOnUDG(t *testing.T) {
	// Prop. 3: O(r^{p+1}) edges in a doubling unit-ball graph,
	// independent of density. Check a dense UDG yields a small tree.
	rng := rand.New(rand.NewSource(3))
	g := randomUDG(500, 4, 1.0, rng)
	if g.N() < 300 {
		t.Skip("degenerate UDG sample")
	}
	r := 3
	tr := MISCSR(g, nil, 0, r)
	// (4r)^p bound is loose; just require far below the ball size.
	dist := graph.BFS(g, 0)
	ball := 0
	for _, d := range dist {
		if d != graph.Unreached && int(d) <= r {
			ball++
		}
	}
	if tr.Size() > ball/3+10 {
		t.Fatalf("MIS tree size %d not small vs ball %d", tr.Size(), ball)
	}
	bad, err := reference.IsDominatingTree(g, tr, r, 1)
	if err != nil || bad != -1 {
		t.Fatalf("bad=%d err=%v", bad, err)
	}
}

func TestKGreedyProducesKConnTree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		g := randomConnected(8+rng.Intn(25), 30, rng)
		for k := 1; k <= 3; k++ {
			u := rng.Intn(g.N())
			tr := KGreedyCSR(g, nil, u, k)
			bad, err := reference.IsKConnDominatingTree(g, tr, k, 0)
			if err != nil {
				t.Fatalf("trial %d k=%d: %v", trial, k, err)
			}
			if bad != -1 {
				t.Fatalf("trial %d k=%d root=%d: vertex %d not k-dominated", trial, k, u, bad)
			}
			// Star shape: every non-root member is a child of the root.
			for _, v := range tr.Nodes() {
				if int(v) != u && tr.Parent(int(v)) != u {
					t.Fatalf("KGreedyCSR tree not a star at %d", v)
				}
			}
		}
	}
}

func TestKGreedyIsMPRForK1(t *testing.T) {
	// k=1 must dominate every distance-2 vertex by at least one relay.
	g := gen.Petersen()
	for u := 0; u < g.N(); u++ {
		tr := KGreedyCSR(g, nil, u, 1)
		bad, err := reference.IsKConnDominatingTree(g, tr, 1, 0)
		if err != nil || bad != -1 {
			t.Fatalf("u=%d bad=%d err=%v", u, bad, err)
		}
		mpr := MPRSet(tr)
		if len(mpr) == 0 {
			t.Fatalf("u=%d: empty MPR set on Petersen", u)
		}
		if len(mpr) != tr.EdgeCount() {
			t.Fatalf("MPR count %d != edges %d", len(mpr), tr.EdgeCount())
		}
	}
}

func TestKMISProducesKConnTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		g := randomConnected(8+rng.Intn(25), 30, rng)
		for k := 1; k <= 3; k++ {
			u := rng.Intn(g.N())
			tr := KMISCSR(g, nil, u, k)
			bad, err := reference.IsKConnDominatingTree(g, tr, k, 1)
			if err != nil {
				t.Fatalf("trial %d k=%d: %v", trial, k, err)
			}
			if bad != -1 {
				t.Fatalf("trial %d k=%d root=%d: vertex %d not k-dominated (beta=1)",
					trial, k, u, bad)
			}
			if tr.Validate(g) != nil {
				t.Fatal("invalid tree")
			}
		}
	}
}

func TestKMISDepthAtMostTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomConnected(30, 60, rng)
	tr := KMISCSR(g, nil, 3, 2)
	for _, v := range tr.Nodes() {
		if tr.Depth(int(v)) > 2 {
			t.Fatalf("vertex %d at depth %d > 2", v, tr.Depth(int(v)))
		}
	}
}

func TestKMISTreeSmallOnUDG(t *testing.T) {
	// Prop. 7: O(k²) edges in doubling UBG.
	rng := rand.New(rand.NewSource(7))
	g := randomUDG(400, 4, 1.0, rng)
	if g.N() < 200 {
		t.Skip("degenerate UDG sample")
	}
	for k := 1; k <= 3; k++ {
		tr := KMISCSR(g, nil, 0, k)
		if tr.EdgeCount() > 40*k*k+40 {
			t.Fatalf("k=%d: tree has %d edges, not O(k²)-small", k, tr.EdgeCount())
		}
	}
}

func TestDominatingTreeCheckerRejects(t *testing.T) {
	// A bare root is not a dominating tree when distance-2 vertices exist.
	g := gen.Path(5)
	tr := graph.NewTree(5, 0)
	bad, err := reference.IsDominatingTree(g, tr, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bad == -1 {
		t.Fatal("checker accepted an empty tree")
	}
	badK, err := reference.IsKConnDominatingTree(g, tr, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if badK == -1 {
		t.Fatal("k-checker accepted an empty tree")
	}
}

func TestKConnCheckerEscapeClause(t *testing.T) {
	// v at distance 2 with a single common neighbor w: selecting w
	// satisfies the escape clause even for k=5.
	g := gen.Path(3) // 0-1-2
	tr := graph.NewTree(3, 0)
	tr.Add(1, 0)
	bad, err := reference.IsKConnDominatingTree(g, tr, 5, 0)
	if err != nil || bad != -1 {
		t.Fatalf("escape clause failed: bad=%d err=%v", bad, err)
	}
}

func TestGreedyDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomConnected(25, 40, rng)
	a := GreedyCSR(g, nil, 0, 3, 1)
	b := GreedyCSR(g, nil, 0, 3, 1)
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("nondeterministic size")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("nondeterministic edges")
		}
	}
}

func TestKGreedyCompleteGraphTrivial(t *testing.T) {
	// No distance-2 vertices: tree is just the root.
	g := gen.Complete(6)
	tr := KGreedyCSR(g, nil, 0, 2)
	if tr.Size() != 1 {
		t.Fatalf("size=%d, want 1", tr.Size())
	}
	tr2 := KMISCSR(g, nil, 0, 2)
	if tr2.Size() != 1 {
		t.Fatalf("KMIS size=%d, want 1", tr2.Size())
	}
}
