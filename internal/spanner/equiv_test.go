package spanner

import (
	"math/rand"
	"testing"

	"remspan/internal/gen"
	"remspan/internal/graph"
	"remspan/internal/reference"
)

// The CSR + scratch + lazy-heap production pipeline must produce edge
// sets identical to the serial union of the map-based reference
// builders (reference.Union) on every construction and graph family.

// refResult builds each spanner family through the reference path.
func refResult(g *graph.Graph, kind string, k, r int) *Result {
	var build func(u int, s *graph.BFSScratch) *graph.Tree
	switch kind {
	case "kgreedy":
		build = func(u int, _ *graph.BFSScratch) *graph.Tree { return reference.KGreedy(g, u, k) }
	case "kmis":
		build = func(u int, _ *graph.BFSScratch) *graph.Tree { return reference.KMIS(g, u, k) }
	case "mis":
		build = func(u int, s *graph.BFSScratch) *graph.Tree { return reference.MIS(g, s, u, r) }
	case "greedy":
		build = func(u int, s *graph.BFSScratch) *graph.Tree { return reference.Greedy(g, s, u, r, 1) }
	default:
		panic("unknown kind " + kind)
	}
	h, sizes := reference.Union(g, build)
	return &Result{H: h, TreeEdges: sizes}
}

func prodResult(g *graph.Graph, kind string, k, r int) *Result {
	switch kind {
	case "kgreedy":
		return KConnecting(g, k)
	case "kmis":
		return KMIS(g, k)
	case "mis":
		return LowStretch(g, 1/float64(r-1))
	case "greedy":
		return LowStretchGreedy(g, 1/float64(r-1))
	}
	panic("unknown kind " + kind)
}

func edgeSetsEqual(a, b *graph.EdgeSet) bool {
	if a.Len() != b.Len() {
		return false
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return true
}

func checkConstructions(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	cases := []struct {
		kind string
		k, r int
	}{
		{"kgreedy", 1, 0},
		{"kgreedy", 3, 0},
		{"kmis", 2, 0},
		{"mis", 0, 3},
		{"greedy", 0, 3},
	}
	for _, cse := range cases {
		want := refResult(g, cse.kind, cse.k, cse.r)
		got := prodResult(g, cse.kind, cse.k, cse.r)
		if !edgeSetsEqual(want.H, got.H) {
			t.Fatalf("%s/%s(k=%d,r=%d): CSR pipeline edge set differs from reference (%d vs %d edges)",
				name, cse.kind, cse.k, cse.r, got.H.Len(), want.H.Len())
		}
		// Per-root tree sizes must match too (same trees, not just the
		// same union).
		for u := range want.TreeEdges {
			if want.TreeEdges[u] != got.TreeEdges[u] {
				t.Fatalf("%s/%s: tree size mismatch at root %d: %d vs %d",
					name, cse.kind, u, got.TreeEdges[u], want.TreeEdges[u])
			}
		}
		// The marks-backed Graph materialization must agree with the
		// edge-set materialization.
		if !got.Graph().Equal(want.H.Graph()) {
			t.Fatalf("%s/%s: Result.Graph() differs from reference materialization", name, cse.kind)
		}
	}
}

func TestPipelineEquivalenceGenFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"ring17", gen.Ring(17)},
		{"path11", gen.Path(11)},
		{"star14", gen.Star(14)},
		{"complete10", gen.Complete(10)},
		{"grid6x5", gen.Grid(6, 5)},
		{"hypercube4", gen.Hypercube(4)},
		{"petersen", gen.Petersen()},
		{"barbell6", gen.Barbell(6, 4)},
		{"erdos-renyi", gen.ErdosRenyi(48, 0.1, rng)},
		{"gnm", gen.GNM(40, 110, rng)},
		{"random-tree", gen.RandomTree(40, rng)},
	}
	for _, f := range families {
		checkConstructions(t, f.name, f.g)
	}
}

func TestPipelineEquivalenceRandomized(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		g := quickGraph(int64(40+trial), 36, 80)
		checkConstructions(t, "quick", g)
	}
}
