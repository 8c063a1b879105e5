package remspan

import (
	"fmt"
	"math"
	"math/rand"

	"remspan/internal/gen"
	"remspan/internal/geom"
	"remspan/internal/graph"
)

// RandomUDG returns the unit-disk graph of a Poisson point process with
// approximately n nodes on a side×side square (connection radius 1) —
// the paper's random ad-hoc network model — restricted to its largest
// connected component. Deterministic in seed. side must be positive
// and finite; RandomUDG panics otherwise.
func RandomUDG(n int, side float64, seed int64) *Graph {
	if !(side > 0) || math.IsInf(side, 1) {
		panic(fmt.Sprintf("remspan: RandomUDG needs a positive finite side, got side = %v", side))
	}
	rng := rand.New(rand.NewSource(seed))
	pts := geom.PoissonSquare(float64(n)/(side*side), side, rng)
	g := geom.UnitDiskGraph(pts, 1.0)
	keep, _ := graph.LargestComponent(g)
	return wrap(g.InducedSubgraph(keep))
}

// RandomUBG returns the unit-ball graph of n uniform points in
// [0, side]^dim — a unit-ball graph of a metric with doubling dimension
// ≈ dim. Deterministic in seed.
func RandomUBG(n, dim int, side float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	pts := geom.UniformBox(n, dim, side, rng)
	return wrap(geom.UnitBallGraph(geom.EuclideanMetric{Points: pts}, 1.0))
}

// ErdosRenyi returns G(n, p). Deterministic in seed.
func ErdosRenyi(n int, p float64, seed int64) *Graph {
	return wrap(gen.ErdosRenyi(n, p, rand.New(rand.NewSource(seed))))
}

// Grid returns the w×h grid graph.
func Grid(w, h int) *Graph { return wrap(gen.Grid(w, h)) }

// Ring returns the n-cycle.
func Ring(n int) *Graph { return wrap(gen.Ring(n)) }

// Hypercube returns the d-dimensional hypercube.
func Hypercube(d int) *Graph { return wrap(gen.Hypercube(d)) }

// RandomConnected returns a connected random graph: a random tree plus
// extra random edges. Deterministic in seed.
func RandomConnected(n, extraEdges int, seed int64) *Graph {
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
