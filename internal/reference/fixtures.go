package reference

import (
	"math/rand"

	"remspan/internal/graph"
)

// The fixed and random graph families below are fixtures of the tests
// of several packages; no experiment, example or facade function
// generates them, so they live here rather than in internal/gen.

// GNM returns a uniform random graph with exactly m distinct edges
// (m is clamped to n(n-1)/2).
func GNM(n, m int, rng *rand.Rand) *graph.Graph {
	max := n * (n - 1) / 2
	if m > max {
		m = max
	}
	g := graph.New(n)
	for g.M() < m {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// Complete returns K_n.
func Complete(n int) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

// Star returns a star with center 0 and n-1 leaves.
func Star(n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(0, v)
	}
	return g
}

// Petersen returns the Petersen graph (10 vertices, 15 edges,
// 3-regular, girth 5) — a useful fixed test instance.
func Petersen() *graph.Graph {
	g := graph.New(10)
	for i := 0; i < 5; i++ {
		g.AddEdge(i, (i+1)%5)     // outer cycle
		g.AddEdge(5+i, 5+(i+2)%5) // inner pentagram
		g.AddEdge(i, 5+i)         // spokes
	}
	return g
}

// Barbell returns two K_k cliques joined by a path of len pathLen
// (pathLen >= 1 edges between the cliques' gateway vertices).
func Barbell(k, pathLen int) *graph.Graph {
	n := 2*k + pathLen - 1
	g := graph.New(n)
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			g.AddEdge(u, v)
			g.AddEdge(n-1-u, n-1-v)
		}
	}
	prev := k - 1
	for i := 0; i < pathLen-1; i++ {
		g.AddEdge(prev, k+i)
		prev = k + i
	}
	g.AddEdge(prev, n-k)
	return g
}
