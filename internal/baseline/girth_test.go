package baseline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"remspan/internal/gen"
	"remspan/internal/graph"
	"remspan/internal/reference"
)

// girth returns the length of the shortest cycle (0 if acyclic). BFS
// from every vertex; O(n·m), fine for test sizes.
func girth(g *graph.Graph) int {
	best := 0
	for s := 0; s < g.N(); s++ {
		dist := make([]int32, g.N())
		parent := make([]int32, g.N())
		for i := range dist {
			dist[i] = -1
			parent[i] = -1
		}
		dist[s] = 0
		queue := []int32{int32(s)}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.Neighbors(int(u)) {
				if dist[v] == -1 {
					dist[v] = dist[u] + 1
					parent[v] = u
					queue = append(queue, v)
				} else if v != parent[u] {
					// Cycle through s (or shorter elsewhere); length
					// bound dist[u]+dist[v]+1.
					c := int(dist[u] + dist[v] + 1)
					if best == 0 || c < best {
						best = c
					}
				}
			}
		}
	}
	return best
}

// Classic invariant: a greedy t-spanner contains no cycle of length
// ≤ t+1 (any such cycle's last-added edge would have had a short
// alternative path). This is the girth argument behind the
// O(n^{1+1/k}) size bound.
func TestGreedySpannerGirth(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(30+rng.Intn(30), 0.25, rng)
		for _, tt := range []int{3, 5} {
			h := GreedySpanner(g, tt)
			if gi := girth(h); gi != 0 && gi <= tt+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGirthFixtures(t *testing.T) {
	if g := girth(gen.Ring(7)); g != 7 {
		t.Fatalf("C7 girth %d", g)
	}
	if g := girth(reference.Complete(5)); g != 3 {
		t.Fatalf("K5 girth %d", g)
	}
	if g := girth(reference.Petersen()); g != 5 {
		t.Fatalf("Petersen girth %d", g)
	}
	if g := girth(gen.Path(6)); g != 0 {
		t.Fatalf("path girth %d", g)
	}
	if g := girth(gen.Grid(3, 3)); g != 4 {
		t.Fatalf("grid girth %d", g)
	}
}

// The spanner size bound itself: a graph with girth > 2k has at most
// n^{1+1/k} + n edges (Moore bound flavor); check the greedy spanner
// respects the concrete bound at k=2 on dense inputs.
func TestGreedySpannerSizeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := gen.ErdosRenyi(150, 0.4, rng)
	h := GreedySpanner(g, 3) // k=2 → girth > 4
	n := float64(g.N())
	bound := n*float64(intSqrt(g.N())) + n // n^{3/2} + n
	if float64(h.M()) > bound {
		t.Fatalf("3-spanner has %d edges > bound %.0f", h.M(), bound)
	}
}

func intSqrt(n int) int {
	s := 0
	for s*s <= n {
		s++
	}
	return s
}
