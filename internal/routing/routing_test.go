package routing

import (
	"math/rand"
	"testing"

	"remspan/internal/gen"
	"remspan/internal/geom"
	"remspan/internal/graph"
	"remspan/internal/spanner"
)

func randomConnected(n, extra int, rng *rand.Rand) *graph.Graph {
	g := gen.RandomTree(n, rng)
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

func randomUDG(n int, side, radius float64, rng *rand.Rand) *graph.Graph {
	pts := geom.UniformBox(n, 2, side, rng)
	g := geom.UnitDiskGraph(pts, radius)
	keep, _ := graph.LargestComponent(g)
	return g.InducedSubgraph(keep)
}

func allPairsSample(n, count int, rng *rand.Rand) [][2]int {
	pairs := make([][2]int, 0, count)
	for i := 0; i < count; i++ {
		pairs = append(pairs, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	return pairs
}

func TestGreedyRouteOnExactSpannerIsShortest(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		g := randomConnected(20+rng.Intn(20), 40, rng)
		h := spanner.Exact(g).Graph()
		d := graph.AllPairsDistances(g)
		for i := 0; i < 20; i++ {
			s, tt := rng.Intn(g.N()), rng.Intn(g.N())
			r := GreedyRoute(g, h, s, tt)
			if !r.OK {
				t.Fatalf("trial %d: no route %d→%d", trial, s, tt)
			}
			if r.Hops != int(d[s][tt]) {
				t.Fatalf("trial %d: route %d→%d has %d hops, shortest %d",
					trial, s, tt, r.Hops, d[s][tt])
			}
		}
	}
}

func TestGreedyRouteStretchBoundLowStretch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 6; trial++ {
		g := randomConnected(25+rng.Intn(20), 50, rng)
		res := spanner.LowStretch(g, 0.5) // (3/2, 0) stretch
		h := res.Graph()
		st := spanner.LowStretchOf(res.R)
		d := graph.AllPairsDistances(g)
		for i := 0; i < 25; i++ {
			s, tt := rng.Intn(g.N()), rng.Intn(g.N())
			if s == tt {
				continue
			}
			r := GreedyRoute(g, h, s, tt)
			if !r.OK {
				t.Fatalf("no route %d→%d", s, tt)
			}
			if !st.Holds(int64(d[s][tt]), int64(r.Hops)) {
				t.Fatalf("route %d→%d has %d hops, d_G=%d, bound %v",
					s, tt, r.Hops, d[s][tt], st)
			}
		}
	}
}

func TestGreedyRouteTrivialCases(t *testing.T) {
	g := gen.Path(4)
	h := g.Clone()
	r := GreedyRoute(g, h, 2, 2)
	if !r.OK || r.Hops != 0 {
		t.Fatal("self route")
	}
	r2 := GreedyRoute(g, h, 0, 1)
	if !r2.OK || r2.Hops != 1 {
		t.Fatal("adjacent route")
	}
	// Unroutable: empty spanner, target beyond neighbors.
	r3 := GreedyRoute(g, graph.New(4), 0, 3)
	if r3.OK {
		t.Fatal("expected failure with empty spanner")
	}
}

func TestMeasureRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnected(30, 60, rng)
	h := spanner.Exact(g).Graph()
	stats := MeasureRouting(g, h, allPairsSample(g.N(), 50, rng))
	if stats.Delivered != stats.Pairs {
		t.Fatalf("delivered %d of %d", stats.Delivered, stats.Pairs)
	}
	if stats.MaxStretch > 1.0 {
		t.Fatalf("exact spanner routing stretch %v > 1", stats.MaxStretch)
	}
}

func TestSelectMPRsCoverAndFlood(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 8; trial++ {
		g := randomUDG(120, 3, 1.0, rng)
		if g.N() < 20 {
			t.Skip("degenerate UDG")
		}
		sel := SelectMPRs(g, 1)
		src := rng.Intn(g.N())
		mpr := MPRFlood(g, sel, src, nil)
		if mpr.Covered != g.N() {
			t.Fatalf("trial %d: MPR flood covered %d of %d", trial, mpr.Covered, g.N())
		}
		blind := BlindFlood(g, src, nil)
		if blind.Covered != g.N() {
			t.Fatal("blind flood did not cover")
		}
		if mpr.Transmissions > blind.Transmissions {
			t.Fatalf("MPR flooding (%d tx) worse than blind (%d tx)",
				mpr.Transmissions, blind.Transmissions)
		}
	}
}

func TestRelayEdgesFormRemoteSpanner(t *testing.T) {
	// Prop. 5, k=1: the union of MPR links is a (1, 0)-remote-spanner.
	rng := rand.New(rand.NewSource(5))
	g := randomConnected(30, 60, rng)
	sel := SelectMPRs(g, 1)
	h := sel.RelayEdges(g.N()).Graph()
	if v := spanner.Check(g, h, spanner.NewStretch(1, 0)); v != nil {
		t.Fatalf("%v", v)
	}
}

func TestFloodWithFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomUDG(120, 3, 1.2, rng)
	if g.N() < 20 {
		t.Skip("degenerate UDG")
	}
	sel := SelectMPRs(g, 2)
	failed := make([]bool, g.N())
	failed[g.N()/2] = true
	src := 0
	if failed[src] {
		src = 1
	}
	res := MPRFlood(g, sel, src, failed)
	if res.Covered == 0 {
		t.Fatal("flood from alive source covered nothing")
	}
	// A failed source transmits nothing.
	res2 := MPRFlood(g, sel, g.N()/2, failed)
	if res2.Covered != 0 || res2.Transmissions != 0 {
		t.Fatal("failed source should not flood")
	}
}

func TestDisjointRoutesOnTwoConnecting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomConnected(20, 50, rng)
	h := spanner.TwoConnecting(g).Graph()
	found := 0
	for s := 0; s < g.N() && found < 10; s++ {
		for tt := s + 1; tt < g.N() && found < 10; tt++ {
			if g.HasEdge(s, tt) {
				continue
			}
			if _, ok, _ := DisjointRoutes(g, g, s, tt, 2); !ok {
				continue // not 2-connected in G
			}
			res, ok, err := DisjointRoutes(g, h, s, tt, 2)
			if err != nil || !ok {
				t.Fatalf("pair (%d,%d): 2-connected in G but not in H_s", s, tt)
			}
			if len(res.Paths) != 2 {
				t.Fatal("wrong path count")
			}
			found++
		}
	}
	if found == 0 {
		t.Skip("no 2-connected non-adjacent pairs sampled")
	}
}

func TestMeasureMultipath(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomConnected(25, 60, rng)
	h := spanner.TwoConnecting(g).Graph()
	var pairs [][2]int
	for i := 0; i < 40; i++ {
		pairs = append(pairs, [2]int{rng.Intn(g.N()), rng.Intn(g.N())})
	}
	rep := MeasureMultipath(g, h, pairs)
	if rep.Pairs == 0 {
		t.Skip("no eligible pairs")
	}
	if rep.WithTwoRoutes != rep.Pairs {
		t.Fatalf("2-connecting property violated: %d of %d pairs have two routes",
			rep.WithTwoRoutes, rep.Pairs)
	}
	if rep.SurvivedFaults != rep.FaultTrials {
		t.Fatalf("fault injection: %d of %d survived", rep.SurvivedFaults, rep.FaultTrials)
	}
	// Th. 3 aggregate: Σd²_H ≤ 2Σd²_G − 2·pairs.
	if rep.SumLenH > 2*rep.SumLenG-2*rep.WithTwoRoutes {
		t.Fatalf("d² sums violate (2,−1): H=%d G=%d", rep.SumLenH, rep.SumLenG)
	}
}
