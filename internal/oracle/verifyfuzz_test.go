package oracle

import (
	"math/rand"
	"testing"

	"remspan/internal/gen"
	"remspan/internal/geom"
	"remspan/internal/graph"
	"remspan/internal/spanner"
)

// dropFuzzEdges removes roughly frac of g's edges — a deliberately
// broken spanner so violation paths are exercised, witnesses included.
func dropFuzzEdges(g *graph.Graph, frac float64, rng *rand.Rand) *graph.Graph {
	h := graph.New(g.N())
	for _, e := range g.Edges() {
		if rng.Float64() >= frac {
			h.AddEdge(int(e[0]), int(e[1]))
		}
	}
	return h
}

// FuzzVerifyEquivalence differentially fuzzes the word-parallel
// Validate against the scalar reference ValidateScalar: on random
// UDG/ER/grid/star graphs (disconnected variants included) of every
// size from 0 up, both must return the same first violating pair.
// Check and MeasureProfile have their half in internal/spanner.
func FuzzVerifyEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(10), uint8(100), uint8(80), int64(1))
	f.Add(uint8(1), uint8(200), uint8(30), uint8(0), int64(2))
	f.Add(uint8(2), uint8(77), uint8(200), uint8(255), int64(3))
	f.Add(uint8(3), uint8(5), uint8(0), uint8(40), int64(4))
	f.Add(uint8(4), uint8(160), uint8(90), uint8(120), int64(5))
	for i, n := range []uint8{0, 1, 2, 63, 64, 65, 127} { // around the 64-source batch width
		f.Add([]uint8{0, 1, 3}[i%3], n, uint8(60), uint8(90), int64(i)+6)
	}
	f.Fuzz(func(t *testing.T, fam, size, density, drop uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		n := int(size)
		var g *graph.Graph
		switch fam % 5 {
		case 0: // unit-disk
			g = geom.UnitDiskGraph(geom.UniformBox(n, 2, 3+float64(density%6), rng), 1)
		case 1: // Erdős–Rényi
			g = gen.ErdosRenyi(n, 0.01+float64(density)/255*0.05, rng)
		case 2: // grid
			g = gen.Grid(1+n%16, 1+int(density)%16)
		case 3: // star
			g = gen.Star(n)
		default: // disconnected: two ER blobs + isolated vertices
			na, nb := n%64, int(density)%64
			g = graph.New(na + nb + 5)
			for _, e := range gen.ErdosRenyi(na, 0.05, rng).Edges() {
				g.AddEdge(int(e[0]), int(e[1]))
			}
			for _, e := range gen.ErdosRenyi(nb, 0.05, rng).Edges() {
				g.AddEdge(int(e[0])+na, int(e[1])+na)
			}
		}
		h := dropFuzzEdges(spanner.Exact(g).Graph(), float64(drop)/384, rng)

		o := New(g, h, spanner.NewStretch(1, 0))
		su, sv := o.ValidateScalar()
		bu, bv := o.Validate()
		if su != bu || sv != bv {
			t.Fatalf("Validate: scalar (%d,%d), batched (%d,%d)", su, sv, bu, bv)
		}
	})
}
