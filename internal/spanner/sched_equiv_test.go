package spanner

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"remspan/internal/domtree"
	"remspan/internal/gen"
	"remspan/internal/graph"
	"remspan/internal/testutil"
)

// The shard scheduler must be invisible in every output: any worker
// count — including widths far above the host's cores, which maximize
// stealing — produces results bit-identical to GOMAXPROCS 1, where
// every fan-out runs its shard body as one plain loop. The fan-outs
// size their width from GOMAXPROCS, so these tests sweep it.

// schedProcs returns the GOMAXPROCS values the determinism pins sweep:
// serial, minimal parallel, a prime that never divides the shard count
// evenly, and the host width.
func schedProcs() []int {
	ps := []int{1, 2, 7}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 && p != 7 {
		ps = append(ps, p)
	}
	return ps
}

// atProcs runs fn at GOMAXPROCS procs.
func atProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

var schedBuilders = []struct {
	name string
	b    CSRBuilder
}{
	{"kgreedy1", func(c graph.View, s *domtree.Scratch, u int) *graph.Tree {
		return domtree.KGreedyCSR(c, s, u, 1)
	}},
	{"kmis2", func(c graph.View, s *domtree.Scratch, u int) *graph.Tree {
		return domtree.KMISCSR(c, s, u, 2)
	}},
	{"mis3", func(c graph.View, s *domtree.Scratch, u int) *graph.Tree {
		return domtree.MISCSR(c, s, u, 3)
	}},
	{"greedy3", func(c graph.View, s *domtree.Scratch, u int) *graph.Tree {
		return domtree.GreedyCSR(c, s, u, 3, 1)
	}},
}

// TestBuildParallelDeterminism pins the construction fan-out: all four
// production builders, across gen families and random graphs, produce
// the same edge set and the same per-root tree sizes at every
// GOMAXPROCS as at 1.
func TestBuildParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid12x11", gen.Grid(12, 11)},
		{"hypercube6", gen.Hypercube(6)},
		{"erdos-renyi", gen.ErdosRenyi(160, 0.05, rng)},
		{"quick", quickGraph(33, 150, 320)},
	}
	procs := schedProcs()
	for _, f := range families {
		for _, bb := range schedBuilders {
			var want *Result
			atProcs(1, func() { want = buildParallel(f.g, bb.b) })
			for _, p := range procs[1:] {
				var got *Result
				atProcs(p, func() { got = buildParallel(f.g, bb.b) })
				if !edgeSetsEqual(want.H, got.H) {
					t.Fatalf("%s/%s GOMAXPROCS=%d: edge set differs from GOMAXPROCS=1",
						f.name, bb.name, p)
				}
				for u := range got.TreeEdges {
					if got.TreeEdges[u] != want.TreeEdges[u] {
						t.Fatalf("%s/%s GOMAXPROCS=%d: tree size mismatch at root %d: %d vs %d",
							f.name, bb.name, p, u, got.TreeEdges[u], want.TreeEdges[u])
					}
				}
			}
		}
	}
}

// TestUnionParallelZeroAlloc pins the steady-state allocation guarantee
// of the construction fan-out for every production tree builder: a warm
// shared env rebuilding the same snapshot allocates nothing —
// scratches, edge marks, shard cursors and worker goroutines are all
// pooled — serially and in parallel.
func TestUnionParallelZeroAlloc(t *testing.T) {
	g := quickGraph(5, 400, 900)
	c := graph.NewCSR(g)
	marks := graph.NewEdgeMarks(c)
	sizes := make([]int, c.N())
	for _, bb := range schedBuilders {
		run := func() {
			marks.Reset()
			unionParallelCSR(c, bb.b, marks, sizes)
		}
		for _, procs := range []int{1, 4} {
			testutil.PinAllocsAt(t, "warm unionParallelCSR "+bb.name, procs, 10, run)
		}
	}
	// Deep radii: on a 20×20 grid, GreedyCSR's root paths run past four
	// hops, so a walk stack in Tree.AddPath that is not pooled
	// allocates here, while every shallower case above keeps it on the
	// stack.
	grid := graph.NewCSR(gen.Grid(20, 20))
	gridMarks := graph.NewEdgeMarks(grid)
	gridSizes := make([]int, grid.N())
	for _, r := range []int{6, 8} {
		build := func(c graph.View, s *domtree.Scratch, u int) *graph.Tree {
			return domtree.GreedyCSR(c, s, u, r, 1)
		}
		run := func() {
			gridMarks.Reset()
			unionParallelCSR(grid, build, gridMarks, gridSizes)
		}
		for _, procs := range []int{1, 4} {
			testutil.PinAllocsAt(t, fmt.Sprintf("warm unionParallelCSR greedy%d on a 20×20 grid", r), procs, 10, run)
		}
	}
}

// judgeResult is one JudgeViews outcome.
type judgeResult struct {
	u, v int
	dg   int32
	ok   bool
}

// TestJudgeViewsWidthDeterminism pins the batched judge fan-out: the
// lexicographically first deadline miss is identical at every
// GOMAXPROCS.
func TestJudgeViewsWidthDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	procs := schedProcs()
	for name, g := range verifyFamilies() {
		cg := graph.NewCSR(g)
		for hname, h := range map[string]*graph.Graph{
			"exact":  Exact(g).Graph(),
			"broken": dropEdges(Exact(g).Graph(), 0.35, rng),
			"empty":  graph.New(g.N()),
		} {
			ch := graph.NewCSR(h)
			st := NewStretch(1, 0)
			judge := func(p int) (r judgeResult) {
				atProcs(p, func() { r.u, r.v, r.dg, r.ok = JudgeViews(cg, ch, st) })
				return r
			}
			want := judge(1)
			for _, p := range procs[1:] {
				if got := judge(p); got != want {
					t.Fatalf("%s/%s GOMAXPROCS=%d: judge witness %+v differs from serial %+v",
						name, hname, p, got, want)
				}
			}
		}
	}
}

// TestMeasureBatchedWidthDeterminism pins bit-identical Profile output
// — floats included — at every GOMAXPROCS: the per-worker accumulators
// merge order-independent sums.
func TestMeasureBatchedWidthDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	procs := schedProcs()
	for name, g := range verifyFamilies() {
		cg := graph.NewCSR(g)
		for hname, h := range map[string]*graph.Graph{
			"exact":  Exact(g).Graph(),
			"broken": dropEdges(Exact(g).Graph(), 0.5, rng),
		} {
			ch := graph.NewCSR(h)
			var want Profile
			atProcs(1, func() { want = measureBatchedCSR(cg, ch) })
			for _, p := range procs[1:] {
				var got Profile
				atProcs(p, func() { got = measureBatchedCSR(cg, ch) })
				if want != got {
					t.Fatalf("%s/%s GOMAXPROCS=%d: profile %+v differs from serial %+v",
						name, hname, p, got, want)
				}
			}
		}
	}
}
