// Benchmarks regenerating every reproduced table/figure (experiment ids
// E1–E16 of DESIGN.md §4) plus ablations of the implementation's design
// choices. Custom metrics report the quantities the paper's evaluation
// is about (edges, rounds, transmissions) alongside time/op.
package remspan_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"remspan"
	"remspan/internal/baseline"
	"remspan/internal/domtree"
	"remspan/internal/dynamic"
	"remspan/internal/expt"
	"remspan/internal/geom"
	"remspan/internal/graph"
	"remspan/internal/reference"
	"remspan/internal/spanner"
)

func benchCfg() expt.Config { return expt.Config{Quick: true, Seed: 1} }

// runExperiment benchmarks a whole experiment driver end to end.
func runExperiment(b *testing.B, id string) {
	e, ok := expt.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1(b *testing.B)           { runExperiment(b, "E1") }
func BenchmarkTable1(b *testing.B)            { runExperiment(b, "E2") }
func BenchmarkScalingUDG(b *testing.B)        { runExperiment(b, "E3") }
func BenchmarkEpsilonSweep(b *testing.B)      { runExperiment(b, "E4") }
func BenchmarkKConnSweep(b *testing.B)        { runExperiment(b, "E5") }
func BenchmarkApproxRatio(b *testing.B)       { runExperiment(b, "E6") }
func BenchmarkDistributedRounds(b *testing.B) { runExperiment(b, "E7") }
func BenchmarkRoutingStretch(b *testing.B)    { runExperiment(b, "E8") }
func BenchmarkMultipath(b *testing.B)         { runExperiment(b, "E9") }
func BenchmarkFlooding(b *testing.B)          { runExperiment(b, "E10") }
func BenchmarkFrontier(b *testing.B)          { runExperiment(b, "E11") }
func BenchmarkEdgeConnecting(b *testing.B)    { runExperiment(b, "E12") }
func BenchmarkLiveProtocol(b *testing.B)      { runExperiment(b, "E13") }
func BenchmarkChurn(b *testing.B)             { runExperiment(b, "E14") }
func BenchmarkWorstCase(b *testing.B)         { runExperiment(b, "E15") }
func BenchmarkAsynchrony(b *testing.B)        { runExperiment(b, "E16") }
func BenchmarkLiveNetwork(b *testing.B)       { runExperiment(b, "E17") }

// --- construction micro-benchmarks (the Table 1 structures) ---

func benchUDG(b *testing.B, n int) *remspan.Graph {
	b.Helper()
	return remspan.RandomUDG(n, 4, 1)
}

func BenchmarkConstructExact(b *testing.B) {
	g := benchUDG(b, 400)
	b.ResetTimer()
	var edges int
	for i := 0; i < b.N; i++ {
		edges = remspan.Exact(g).Edges()
	}
	b.ReportMetric(float64(edges), "edges")
	b.ReportMetric(float64(g.M()), "graph-edges")
}

func BenchmarkConstructKConnecting3(b *testing.B) {
	g := benchUDG(b, 400)
	b.ResetTimer()
	var edges int
	for i := 0; i < b.N; i++ {
		edges = remspan.KConnecting(g, 3).Edges()
	}
	b.ReportMetric(float64(edges), "edges")
}

func BenchmarkConstructTwoConnecting(b *testing.B) {
	g := benchUDG(b, 400)
	b.ResetTimer()
	var edges int
	for i := 0; i < b.N; i++ {
		edges = remspan.TwoConnecting(g).Edges()
	}
	b.ReportMetric(float64(edges), "edges")
}

func BenchmarkConstructLowStretch(b *testing.B) {
	g := benchUDG(b, 400)
	b.ResetTimer()
	var edges int
	for i := 0; i < b.N; i++ {
		s, err := remspan.LowStretch(g, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		edges = s.Edges()
	}
	b.ReportMetric(float64(edges), "edges")
}

// BenchmarkConstructExactScale builds the (1,0) exact remote-spanner
// (spanner.Exact, per-node k-greedy trees on the shard-parallel
// fan-out) on constant-degree-8 UDGs at production sizes, the
// graph-layer scaling cells. They skip under -short.
func BenchmarkConstructExactScale(b *testing.B) {
	if testing.Short() {
		b.Skip("scale cells skip under -short")
	}
	for _, n := range []int{200_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			gg := remspan.RandomUDG(n, math.Sqrt(math.Pi*float64(n)/8), 1)
			g := graph.FromEdges(gg.N(), gg.Edges())
			b.ReportAllocs()
			b.ResetTimer()
			var edges int
			for i := 0; i < b.N; i++ {
				edges = spanner.Exact(g).H.Len()
			}
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

func BenchmarkConstructBaswanaSen(b *testing.B) {
	gg := remspan.RandomUDG(400, 4, 1)
	g := graph.FromEdges(gg.N(), gg.Edges())
	b.ResetTimer()
	var edges int
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		edges = baseline.BaswanaSen(g, 3, rng).M()
	}
	b.ReportMetric(float64(edges), "edges")
}

func BenchmarkVerifyExactAllPairs(b *testing.B) {
	g := benchUDG(b, 300)
	s := remspan.Exact(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := remspan.Verify(g, s.H, s.Guarantee); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistributedProtocol(b *testing.B) {
	g := benchUDG(b, 300)
	b.ResetTimer()
	var rounds int
	var words int64
	for i := 0; i < b.N; i++ {
		res, err := remspan.RunDistributed(g, remspan.AlgoExact, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		rounds, words = res.Rounds, res.Words
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(words), "words")
}

// --- ablations (DESIGN.md §5) ---

// Parallel per-node tree construction vs the serial loop (both on the
// CSR fast path, isolating the parallelism win).
func BenchmarkAblationParallel(b *testing.B) {
	gg := remspan.RandomUDG(500, 4, 1)
	g := graph.FromEdges(gg.N(), gg.Edges())
	b.Run("serial", func(b *testing.B) {
		// At GOMAXPROCS 1 the construction fan-out runs its shard body
		// as one plain loop on the caller, so both arms run the same
		// code and differ only in the worker count.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		for i := 0; i < b.N; i++ {
			spanner.Exact(g)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spanner.Exact(g)
		}
	})
}

// The whole construction pipeline: retained map-based reference vs the
// production CSR + scratch + lazy-heap path (this PR's tentpole).
func BenchmarkAblationPipeline(b *testing.B) {
	gg := remspan.RandomUDG(400, 4, 1)
	g := graph.FromEdges(gg.N(), gg.Edges())
	b.Run("map-reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reference.Union(g, func(u int, s *graph.BFSScratch) *graph.Tree {
				return reference.KGreedy(g, u, 1)
			})
		}
	})
	b.Run("csr-scratch", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // serial, like the reference arm
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spanner.Exact(g)
		}
	})
}

// Reusable bounded-BFS scratch vs per-root allocation.
func BenchmarkAblationScratch(b *testing.B) {
	gg := remspan.RandomUDG(400, 4, 1)
	g := graph.FromEdges(gg.N(), gg.Edges())
	b.Run("shared-scratch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := graph.NewBFSScratch(g.N())
			for u := 0; u < g.N(); u++ {
				reference.MIS(g, s, u, 3)
			}
		}
	})
	b.Run("fresh-scratch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for u := 0; u < g.N(); u++ {
				reference.MIS(g, nil, u, 3)
			}
		}
	})
}

// toggleEdge flips {u, v} through a one-change ApplyBatch and reports
// whether the change had an effect.
func toggleEdge(m *dynamic.Maintainer, u, v int) bool {
	kind := dynamic.AddEdge
	if m.View().HasEdge(u, v) {
		kind = dynamic.RemoveEdge
	}
	one := [1]dynamic.Change{{Kind: kind, U: u, V: v}}
	return m.ApplyBatch(one[:]) == 1
}

// snapshotSink keeps the snapshot ablation arm's re-snapshot live, so
// the compiler cannot drop it.
var snapshotSink *graph.CSR

// Incremental spanner maintenance per change: the snapshot-free delta
// path (single and batched) vs the snapshot-per-change ablation vs full
// recomputation.
func BenchmarkAblationIncremental(b *testing.B) {
	gg := remspan.RandomUDG(400, 4, 1)
	g := graph.FromEdges(gg.N(), gg.Edges())
	build := func(c graph.View, s *domtree.Scratch, u int) *graph.Tree {
		return domtree.KGreedyCSR(c, s, u, 1)
	}
	toggle := func(m *dynamic.Maintainer, rng *rand.Rand) bool {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		if u == v {
			return false
		}
		return toggleEdge(m, u, v)
	}
	b.Run("incremental-delta", func(b *testing.B) {
		m := dynamic.New(g, 1, build)
		rng := rand.New(rand.NewSource(2))
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			toggle(m, rng)
		}
	})
	b.Run("incremental-batch64", func(b *testing.B) {
		m := dynamic.New(g, 1, build)
		rng := rand.New(rand.NewSource(2))
		batch := make([]dynamic.Change, 0, 64)
		b.ResetTimer()
		b.ReportAllocs()
		// One op = one batch of 64 toggles with a single unioned repair.
		for i := 0; i < b.N; i++ {
			batch = batch[:0]
			for len(batch) < cap(batch) {
				u, v := rng.Intn(g.N()), rng.Intn(g.N())
				if u == v {
					continue
				}
				kind := dynamic.AddEdge
				if m.View().HasEdge(u, v) {
					kind = dynamic.RemoveEdge
				}
				batch = append(batch, dynamic.Change{Kind: kind, U: u, V: v})
			}
			m.ApplyBatch(batch)
		}
	})
	b.Run("incremental-snapshot", func(b *testing.B) {
		// The pre-delta baseline: every applied change also pays the
		// O(n+m) CSR re-snapshot the maintainer took before it patched
		// a delta in place.
		m := dynamic.New(g, 1, build)
		rng := rand.New(rand.NewSource(2))
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if toggle(m, rng) {
				snapshotSink = graph.NewCSR(m.View())
			}
		}
	})
	b.Run("full-rebuild", func(b *testing.B) {
		work := g.Clone()
		rng := rand.New(rand.NewSource(2))
		scratch := domtree.NewScratch(work.N())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			u, v := rng.Intn(work.N()), rng.Intn(work.N())
			if u == v {
				continue
			}
			if work.HasEdge(u, v) {
				work.RemoveEdge(u, v)
			} else {
				work.AddEdge(u, v)
			}
			c := graph.NewCSR(work)
			var edges [][2]int32
			for w := 0; w < work.N(); w++ {
				edges = append(edges, build(c, scratch, w).Edges()...)
			}
			graph.NewEdgeSet(work.N(), edges)
		}
	})
}

// BenchmarkMaintainerToggle pins the snapshot-free guarantee: a single
// edge toggle's time and allocations must not grow with n (with the
// delta-patched CSR there is no O(n+m) copy on the path; compare the
// allocs/op across the sub-benchmarks and against the snapshot arm of
// BenchmarkAblationIncremental).
func BenchmarkMaintainerToggle(b *testing.B) {
	build := func(c graph.View, s *domtree.Scratch, u int) *graph.Tree {
		return domtree.KGreedyCSR(c, s, u, 1)
	}
	for _, n := range []int{2000, 20000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			// Side ∝ √n keeps the average degree ≈ 8 across sizes —
			// supercritical (2D percolation threshold ≈ 4.5), so the
			// kept largest component spans nearly all n vertices.
			side := math.Sqrt(math.Pi * float64(n) / 8)
			gg := remspan.RandomUDG(n, side, 1)
			g := graph.FromEdges(gg.N(), gg.Edges())
			m := dynamic.New(g, 1, build)
			rng := rand.New(rand.NewSource(3))
			// Toggle within a fixed pool so rows stay warm (steady state).
			pool := make([][2]int, 0, 128)
			for len(pool) < cap(pool) {
				u, v := rng.Intn(g.N()), rng.Intn(g.N())
				if u != v {
					pool = append(pool, [2]int{u, v})
				}
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pool[rng.Intn(len(pool))]
				toggleEdge(m, p[0], p[1])
			}
		})
	}
}

// Eager map-based greedy k-cover selection vs the production CSR +
// scratch + lazy-heap path the pipeline runs on.
func BenchmarkAblationLazyGreedy(b *testing.B) {
	gg := remspan.RandomUDG(500, 4, 1)
	g := graph.FromEdges(gg.N(), gg.Edges())
	b.Run("eager", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for u := 0; u < g.N(); u += 7 {
				reference.KGreedy(g, u, 2)
			}
		}
	})
	b.Run("lazy-csr-scratch", func(b *testing.B) {
		c := graph.NewCSR(g)
		s := domtree.NewScratch(g.N())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for u := 0; u < g.N(); u += 7 {
				domtree.KGreedyCSR(c, s, u, 2)
			}
		}
	})
}

// All-roots BFS sweep: mutable adjacency-list graph vs immutable CSR
// snapshot (memory-layout ablation). Both arms run the same traversal,
// BFSScratch.BoundedView without a bound, so only the layout differs.
func BenchmarkAblationCSR(b *testing.B) {
	gg := remspan.RandomUDG(1200, 4, 1)
	g := graph.FromEdges(gg.N(), gg.Edges())
	for _, arm := range []struct {
		name string
		view graph.View
	}{{"adjacency-list", g}, {"csr", graph.NewCSR(g)}} {
		b.Run(arm.name, func(b *testing.B) {
			s := graph.NewBFSScratch(g.N())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for u := 0; u < g.N(); u += 3 {
					s.BoundedView(arm.view, u, g.N())
				}
			}
		})
	}
}

// All-pairs verification on the 64-source word-parallel bit-packed
// engine (deadline-lockstep judge). BenchmarkCheckScalar in
// internal/spanner times the scalar BFS pair per vertex it replaced.
func BenchmarkAblationBitBFS(b *testing.B) {
	gg := remspan.RandomUDG(1500, math.Sqrt(math.Pi*1500/16), 1)
	g := graph.FromEdges(gg.N(), gg.Edges())
	h := spanner.Exact(g).Graph()
	st := spanner.NewStretch(1, 0)
	b.Run("bit-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if v := spanner.Check(g, h, st); v != nil {
				b.Fatal(v)
			}
		}
	})
}

// UDG construction: grid buckets vs quadratic brute force.
func BenchmarkAblationUDGGrid(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := geom.UniformBox(2000, 2, 10, rng)
	b.Run("grid-buckets", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			geom.UnitDiskGraph(pts, 1.0)
		}
	})
	b.Run("brute-force", func(b *testing.B) {
		m := geom.EuclideanMetric{Points: pts}
		for i := 0; i < b.N; i++ {
			geom.UnitBallGraph(m, 1.0)
		}
	})
}
