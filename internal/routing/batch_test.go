package routing

import (
	"math/rand"
	"runtime"
	"testing"

	"remspan/internal/gen"
	"remspan/internal/geom"
	"remspan/internal/graph"
	"remspan/internal/reference"
	"remspan/internal/spanner"
	"remspan/internal/testutil"
)

// routingFamilies returns the generator families the forwarding plane
// is pinned against: geometric (UDG), random (ER), structured (grid,
// star, ring), tree, and disconnected inputs.
func routingFamilies() map[string]*graph.Graph {
	rng := rand.New(rand.NewSource(42))
	pts := geom.UniformBox(170, 2, 4, rng)
	fams := map[string]*graph.Graph{
		"udg":  geom.UnitDiskGraph(pts, 1),
		"er":   gen.ErdosRenyi(160, 0.03, rand.New(rand.NewSource(5))),
		"grid": gen.Grid(12, 11),
		"star": reference.Star(130),
		"ring": gen.Ring(120),
		"tree": gen.RandomTree(150, rand.New(rand.NewSource(6))),
	}
	// Disconnected: two ER blobs plus isolated vertices.
	disc := graph.New(180)
	a := gen.ErdosRenyi(70, 0.06, rand.New(rand.NewSource(7)))
	for _, e := range a.Edges() {
		disc.AddEdge(int(e[0]), int(e[1]))
	}
	b := gen.ErdosRenyi(80, 0.05, rand.New(rand.NewSource(8)))
	for _, e := range b.Edges() {
		disc.AddEdge(int(e[0])+75, int(e[1])+75)
	}
	fams["disconnected"] = disc
	return fams
}

// routingSpanners returns advertised-spanner variants for g: the exact
// remote-spanner, a deliberately damaged subgraph of it, and the empty
// spanner (only star edges in every view).
func routingSpanners(g *graph.Graph, rng *rand.Rand) map[string]*graph.Graph {
	ex := spanner.Exact(g).Graph()
	broken := graph.New(g.N())
	for _, e := range ex.Edges() {
		if rng.Float64() >= 0.35 {
			broken.AddEdge(int(e[0]), int(e[1]))
		}
	}
	return map[string]*graph.Graph{
		"exact":  ex,
		"broken": broken,
		"empty":  graph.New(g.N()),
	}
}

func tablesEqual(t *testing.T, ctx string, want, got []Table) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d tables vs %d", ctx, len(want), len(got))
	}
	for u := range want {
		if want[u].Owner != got[u].Owner {
			t.Fatalf("%s: owner %d vs %d", ctx, want[u].Owner, got[u].Owner)
		}
		for v := range want[u].Next {
			if want[u].Next[v] != got[u].Next[v] || want[u].Dist[v] != got[u].Dist[v] {
				t.Fatalf("%s: owner %d dest %d: scalar (next %d, dist %d), batched (next %d, dist %d)",
					ctx, u, v, want[u].Next[v], want[u].Dist[v], got[u].Next[v], got[u].Dist[v])
			}
		}
	}
}

// TestBatchedTablesMatchScalar pins the word-parallel builder
// bit-identical — Next and Dist, every owner, every destination —
// against the scalar reference on every generator family and spanner
// variant, over Graph, CSR and CSRDelta views.
func TestBatchedTablesMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for name, g := range routingFamilies() {
		for hname, h := range routingSpanners(g, rng) {
			want := BuildTables(g, h)
			got := BuildTablesBatched(g, graph.NewCSR(h))
			tablesEqual(t, name+"/"+hname+"/graph", want, got)

			cg, ch := graph.NewCSR(g), graph.NewCSR(h)
			gotCSR := BuildTablesBatched(cg, ch)
			tablesEqual(t, name+"/"+hname+"/csr", want, gotCSR)
		}
	}
}

// TestBatchBuilderSubsets pins subset builds (the Store's dirty-owner
// path): arbitrary owner subsets in arbitrary order produce exactly
// the scalar rows, and untouched tables stay untouched.
func TestBatchBuilderSubsets(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := routingFamilies()["udg"]
	h := spanner.Exact(g).Graph()
	n := g.N()
	want := BuildTables(g, h)

	b := NewBatchBuilder(n)
	tables := NewTables(n)
	for trial := 0; trial < 5; trial++ {
		perm := rng.Perm(n)
		k := 1 + rng.Intn(n-1)
		owners := make([]int32, k)
		for i := range owners {
			owners[i] = int32(perm[i])
		}
		for _, u := range owners { // poison to catch missed writes
			for v := 0; v < n; v++ {
				tables[u].Next[v] = -7
				tables[u].Dist[v] = -7
			}
		}
		b.BuildInto(g, graph.NewCSR(h), tables, owners)
		for _, u := range owners {
			for v := 0; v < n; v++ {
				if tables[u].Next[v] != want[u].Next[v] || tables[u].Dist[v] != want[u].Dist[v] {
					t.Fatalf("trial %d owner %d dest %d: (next %d, dist %d), want (next %d, dist %d)",
						trial, u, v, tables[u].Next[v], tables[u].Dist[v], want[u].Next[v], want[u].Dist[v])
				}
			}
		}
	}
}

// TestBatchBuilderZeroAlloc pins the warm builder allocation-free
// across repeated group builds.
func TestBatchBuilderZeroAlloc(t *testing.T) {
	g := routingFamilies()["udg"]
	h := spanner.Exact(g).Graph()
	n := g.N()
	cg, ch := graph.NewCSR(g), graph.NewCSR(h)
	var bo graph.BatchOrderScratch
	order, _ := bo.Order(cg)
	b := NewBatchBuilder(n)
	tables := NewTables(n)
	b.BuildInto(cg, ch, tables, order) // warm
	testutil.PinAllocs(t, "warm batched build", 5, func() {
		b.BuildInto(cg, ch, tables, order)
	})
}

// FuzzTableEquivalence drives random graph/spanner shapes through both
// builders and requires bit-identical tables.
func FuzzTableEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(40), uint8(30))
	f.Add(int64(2), uint8(1), uint8(60), uint8(80))
	f.Add(int64(3), uint8(2), uint8(25), uint8(10))
	f.Add(int64(4), uint8(3), uint8(49), uint8(50))
	f.Add(int64(5), uint8(4), uint8(33), uint8(99))
	f.Fuzz(func(t *testing.T, seed int64, family, size, drop uint8) {
		g, h := fuzzGraphSpanner(seed, family, size, drop)
		want := BuildTables(g, h)
		got := BuildTablesBatched(g, graph.NewCSR(h))
		tablesEqual(t, "fuzz", want, got)
	})
}

// fuzzGraphSpanner decodes fuzz bytes into a (graph, damaged exact
// spanner) pair spanning UDG/ER/grid/star/tree shapes, including
// disconnected ones (subcritical ER, dropped edges).
func fuzzGraphSpanner(seed int64, family, size, drop uint8) (*graph.Graph, *graph.Graph) {
	rng := rand.New(rand.NewSource(seed))
	n := 8 + int(size)%120
	var g *graph.Graph
	switch family % 5 {
	case 0:
		pts := geom.UniformBox(n, 2, 3.5, rng)
		g = geom.UnitDiskGraph(pts, 1)
	case 1:
		g = gen.ErdosRenyi(n, 3.0/float64(n), rng)
	case 2:
		g = gen.Grid(2+n/10, 3)
	case 3:
		g = reference.Star(n)
	default:
		g = gen.RandomTree(n, rng)
	}
	h := graph.New(g.N())
	frac := float64(drop%100) / 100
	for _, e := range spanner.Exact(g).Graph().Edges() {
		if rng.Float64() >= frac {
			h.AddEdge(int(e[0]), int(e[1]))
		}
	}
	return g, h
}

// TestBatchedTablesParallelWorkers exercises the worker-pool fan-out
// (single-threaded hosts run the serial path, so the pool is forced by
// raising GOMAXPROCS) and pins it bit-identical to scalar.
func TestBatchedTablesParallelWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	g := routingFamilies()["udg"]
	h := spanner.Exact(g).Graph()
	want := BuildTables(g, h)
	got := BuildTablesBatched(g, graph.NewCSR(h))
	tablesEqual(t, "parallel", want, got)
}

// benchGraph builds the er16 workload at n for the table-construction
// micro-benchmarks.
func benchGraph(n int) (*graph.CSR, *graph.CSR, []int32) {
	g := gen.ErdosRenyi(n, 16/float64(n), rand.New(rand.NewSource(1)))
	h := spanner.Exact(g).Graph()
	cg, ch := graph.NewCSR(g), graph.NewCSR(h)
	var bo graph.BatchOrderScratch
	order, _ := bo.Order(cg)
	return cg, ch, order
}

func BenchmarkBuildTablesScalar(b *testing.B) {
	cg, ch, order := benchGraph(4000)
	n := cg.N()
	tables := NewTables(n)
	s := NewTableScratch(n)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, u := range order {
			s.BuildTableInto(cg, ch, int(u), tables[u].Next, tables[u].Dist)
		}
	}
}

func BenchmarkBuildTablesBatched(b *testing.B) {
	cg, ch, order := benchGraph(4000)
	n := cg.N()
	tables := NewTables(n)
	bb := NewBatchBuilder(n)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bb.BuildInto(cg, ch, tables, order)
	}
}
