package remspan

import (
	"math"
	"math/rand"

	"remspan/internal/gen"
	"remspan/internal/geom"
	"remspan/internal/graph"
)

// RandomUDG returns the unit-disk graph of a Poisson point process with
// approximately n nodes on a side×side square (connection radius 1) —
// the paper's random ad-hoc network model — restricted to its largest
// connected component. Deterministic in seed. n must be non-negative
// and side positive and finite; RandomUDG panics otherwise.
func RandomUDG(n int, side float64, seed int64) *Graph {
	checkArg(n >= 0, "RandomUDG needs n >= 0, got n = %d", n)
	checkArg(side > 0 && !math.IsInf(side, 1), "RandomUDG needs a positive finite side, got side = %v", side)
	rng := rand.New(rand.NewSource(seed))
	pts := geom.PoissonSquare(float64(n)/(side*side), side, rng)
	g := geom.UnitDiskGraph(pts, 1.0)
	keep, _ := graph.LargestComponent(g)
	return wrap(g.InducedSubgraph(keep))
}

// RandomUBG returns the unit-ball graph of n uniform points in
// [0, side]^dim — a unit-ball graph of a metric with doubling dimension
// ≈ dim. Deterministic in seed. It panics if n or dim is negative.
func RandomUBG(n, dim int, side float64, seed int64) *Graph {
	checkArg(n >= 0 && dim >= 0, "RandomUBG needs n, dim >= 0, got n = %d, dim = %d", n, dim)
	rng := rand.New(rand.NewSource(seed))
	pts := geom.UniformBox(n, dim, side, rng)
	return wrap(geom.UnitBallGraph(geom.EuclideanMetric{Points: pts}, 1.0))
}

// ErdosRenyi returns G(n, p). Deterministic in seed. It panics if n is
// negative.
func ErdosRenyi(n int, p float64, seed int64) *Graph {
	checkArg(n >= 0, "ErdosRenyi needs n >= 0, got n = %d", n)
	return wrap(gen.ErdosRenyi(n, p, rand.New(rand.NewSource(seed))))
}

// Grid returns the w×h grid graph. It panics if w or h is negative.
func Grid(w, h int) *Graph {
	checkArg(w >= 0 && h >= 0, "Grid needs w, h >= 0, got w = %d, h = %d", w, h)
	return wrap(gen.Grid(w, h))
}

// Ring returns the n-cycle. It panics if n is negative.
func Ring(n int) *Graph {
	checkArg(n >= 0, "Ring needs n >= 0, got n = %d", n)
	return wrap(gen.Ring(n))
}

// Hypercube returns the d-dimensional hypercube on 2^d vertices. It
// panics unless 0 <= d <= 30: vertex ids are int32.
func Hypercube(d int) *Graph {
	checkArg(d >= 0 && d <= 30, "Hypercube needs 0 <= d <= 30, got d = %d", d)
	return wrap(gen.Hypercube(d))
}

// RandomConnected returns a connected random graph: a random tree plus
// extra random edges. Deterministic in seed. It panics if n is
// negative, or zero with extra edges asked for.
func RandomConnected(n, extraEdges int, seed int64) *Graph {
	checkArg(n >= 0, "RandomConnected needs n >= 0, got n = %d", n)
	checkArg(n > 0 || extraEdges <= 0, "RandomConnected needs n >= 1 to add edges, got n = 0, extraEdges = %d", extraEdges)
	rng := rand.New(rand.NewSource(seed))
	g := gen.RandomTree(n, rng)
	for i := 0; i < extraEdges; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return wrap(g)
}
