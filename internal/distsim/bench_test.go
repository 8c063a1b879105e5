package distsim

import (
	"math"
	"math/rand"
	"testing"

	"remspan/internal/dynamic"
	"remspan/internal/geom"
	"remspan/internal/graph"
)

// benchUDG is the graph remspan.RandomUDG(n, √(π·n/deg), seed)
// returns: the largest component of a Poisson unit-disk graph whose
// square keeps the mean degree ≈ deg at every n.
func benchUDG(n, deg int, seed int64) *graph.Graph {
	side := math.Sqrt(math.Pi * float64(n) / float64(deg))
	rng := rand.New(rand.NewSource(seed))
	g := geom.UnitDiskGraph(geom.PoissonSquare(float64(n)/(side*side), side, rng), 1.0)
	keep, _ := graph.LargestComponent(g)
	return g.InducedSubgraph(keep)
}

// BenchmarkDistsim measures the distributed simulation engine
// (DESIGN.md §3d) on a constant-degree UDG: the flat-state engine vs
// the message-level reference statically, for the (1,0) construction
// (kgreedy1, R = 1) and the 2-connecting one (kmis2, R = 2), and the
// incremental live tick (one edge toggle → dirty-root reflood). Both
// static arms report the same words (397,982 and 5,549,036 at n = 2000).
// The flood-50k workload of cmd/bench runs the live path at scale.
func BenchmarkDistsim(b *testing.B) {
	g := benchUDG(2000, 8, 1)
	for _, bb := range dynamic.Builders()[:2] { // kgreedy1 (R = 1), kmis2 (R = 2)
		b.Run("engine-static/"+bb.Name, func(b *testing.B) {
			b.ReportAllocs()
			var words int64
			for i := 0; i < b.N; i++ {
				words = RunRemSpan(g, bb.Radius, bb.Build).Words
			}
			b.ReportMetric(float64(words), "words")
		})
		b.Run("reference-static/"+bb.Name, func(b *testing.B) {
			b.ReportAllocs()
			var words int64
			for i := 0; i < b.N; i++ {
				res, _ := RunRemSpanReference(g, bb.Radius, refAlgos[bb.Name])
				words = res.Words
			}
			b.ReportMetric(float64(words), "words")
		})
	}
	b.Run("live-tick", func(b *testing.B) {
		e := NewEngine(g, 1, dynamic.Builders()[0].Build) // kgreedy1
		e.Run()
		add := []dynamic.Change{{Kind: dynamic.AddEdge, U: 0, V: 1}}
		del := []dynamic.Change{{Kind: dynamic.RemoveEdge, U: 0, V: 1}}
		if g.HasEdge(0, 1) {
			add, del = del, add
		}
		e.Reflood(add)
		e.Reflood(del)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Reflood(add)
			e.Reflood(del)
		}
	})
}
