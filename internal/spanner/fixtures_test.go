package spanner

import (
	"math/rand"
	"testing"
	"testing/quick"

	"remspan/internal/domtree"
	"remspan/internal/gen"
	"remspan/internal/graph"
	"remspan/internal/reference"
)

// quickGraph builds a deterministic connected random graph for
// testing/quick properties.
func quickGraph(seed int64, n, extra int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := gen.RandomTree(n, rng)
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// Fixture: on a cycle, every (2,0)-dominating tree from u must reach
// the two distance-2 vertices through both neighbors, so the exact
// remote-spanner of C_n is the whole cycle.
func TestExactOnCycleKeepsEverything(t *testing.T) {
	for _, n := range []int{5, 8, 13} {
		g := gen.Ring(n)
		res := Exact(g)
		if res.Edges() != n {
			t.Fatalf("C%d: exact spanner has %d edges, want %d", n, res.Edges(), n)
		}
	}
}

// Fixture: on a complete graph there are no distance-2 pairs, so the
// exact remote-spanner is empty — every node sees everyone directly.
func TestExactOnCompleteGraphIsEmpty(t *testing.T) {
	g := reference.Complete(12)
	res := Exact(g)
	if res.Edges() != 0 {
		t.Fatalf("K12: exact spanner has %d edges, want 0", res.Edges())
	}
	if v := Check(g, res.Graph(), NewStretch(1, 0)); v != nil {
		t.Fatalf("empty spanner of K12 rejected: %v", v)
	}
}

// Fixture: a star has no distance-2 pairs among leaves?? No — leaves
// are pairwise at distance 2 through the hub; each leaf must select the
// hub, and the hub selects nothing.
func TestExactOnStar(t *testing.T) {
	g := reference.Star(9)
	res := Exact(g)
	// Every leaf's tree is {leaf→hub}; union is the whole star.
	if res.Edges() != 8 {
		t.Fatalf("star: %d edges, want 8", res.Edges())
	}
}

// Fixture: Petersen graph (diameter 2, girth 5): adjacent vertices share
// no common neighbor, so every MPR set is the full neighborhood and the
// exact remote-spanner keeps all 15 edges.
func TestExactOnPetersen(t *testing.T) {
	g := reference.Petersen()
	res := Exact(g)
	if res.Edges() != 15 {
		t.Fatalf("Petersen: %d edges, want 15", res.Edges())
	}
}

// Fixture: hypercube Q4 — vertex-transitive, every 2-neighborhood is
// identical; spanner must be nonempty, symmetric in size, and valid.
func TestExactOnHypercube(t *testing.T) {
	g := gen.Hypercube(4)
	res := Exact(g)
	if v := Check(g, res.Graph(), NewStretch(1, 0)); v != nil {
		t.Fatal(v)
	}
	if res.Edges() == 0 || res.Edges() > g.M() {
		t.Fatalf("Q4 spanner edges = %d of %d", res.Edges(), g.M())
	}
	for u, sz := range res.TreeEdges {
		if sz != res.TreeEdges[0] {
			t.Fatalf("vertex-transitive graph gave uneven tree sizes: %d at %d", sz, u)
		}
	}
}

// Property: for random graphs, the low-stretch guarantee holds for the
// whole ε ladder of MIS-tree spanners.
func TestQuickLowStretchLadder(t *testing.T) {
	f := func(seed int64) bool {
		g := quickGraph(seed, 24, 46)
		for _, r := range []int{2, 3, 4} {
			res := buildParallel(g, func(c graph.View, s *domtree.Scratch, u int) *graph.Tree {
				return domtree.MISCSR(c, s, u, r)
			})
			if Check(g, res.H.Graph(), LowStretchOf(r)) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: a remote-spanner stays valid under edge additions (more
// edges can only shorten distances in H_u).
func TestQuickSupersetStaysValid(t *testing.T) {
	f := func(seed int64) bool {
		g := quickGraph(seed, 20, 40)
		res := Exact(g)
		h := res.Graph()
		// Add a few arbitrary graph edges to h.
		added := 0
		g.EachEdge(func(u, v int) {
			if added < 5 && !h.HasEdge(u, v) {
				h.AddEdge(u, v)
				added++
			}
		})
		return Check(g, h, NewStretch(1, 0)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
