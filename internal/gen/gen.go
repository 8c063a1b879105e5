// Package gen provides deterministic generators for the combinatorial
// graph families used by tests, examples and benchmarks: random and
// structured graphs on top of the graph substrate.
package gen

import (
	"math/rand"

	"remspan/internal/graph"
)

// ErdosRenyi returns G(n, p): every pair is an edge independently with
// probability p.
func ErdosRenyi(n int, p float64, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// Path returns the path graph 0-1-...-n-1.
func Path(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Ring returns the cycle graph C_n (requires n >= 3 for a proper cycle;
// smaller n degrade to a path).
func Ring(n int) *graph.Graph {
	g := Path(n)
	if n >= 3 {
		g.AddEdge(n-1, 0)
	}
	return g
}

// Grid returns the w×h grid graph; vertex (x, y) has id y*w+x.
func Grid(w, h int) *graph.Graph {
	g := graph.New(w * h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			id := y*w + x
			if x+1 < w {
				g.AddEdge(id, id+1)
			}
			if y+1 < h {
				g.AddEdge(id, id+w)
			}
		}
	}
	return g
}

// Hypercube returns the d-dimensional hypercube Q_d on 2^d vertices.
func Hypercube(d int) *graph.Graph {
	n := 1 << d
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for b := 0; b < d; b++ {
			v := u ^ (1 << b)
			if u < v {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// RandomTree returns a uniformly random labelled tree on n vertices via
// a random Prüfer-like attachment: vertex i (i >= 1) attaches to a
// uniform vertex in [0, i).
func RandomTree(n int, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, rng.Intn(v))
	}
	return g
}
