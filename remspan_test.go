package remspan

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"remspan/internal/graph"
	"remspan/internal/reference"
	"remspan/internal/spanner"
	"remspan/internal/testutil"
)

func TestGraphFacadeBasics(t *testing.T) {
	g := NewGraph(4)
	if !g.AddEdge(0, 1) || g.AddEdge(0, 1) {
		t.Fatal("AddEdge semantics")
	}
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge")
	}
	if d := g.Distance(0, 3); d != 3 {
		t.Fatalf("distance=%d", d)
	}
	if nb := g.Neighbors(1); len(nb) != 2 || nb[0] != 0 || nb[1] != 2 {
		t.Fatalf("neighbors=%v", nb)
	}
	if es := g.Edges(); len(es) != 3 || es[0] != [2]int{0, 1} {
		t.Fatalf("edges=%v", es)
	}
	if !g.Connected() {
		t.Fatal("path should be connected")
	}
	c := g.Clone()
	c.AddEdge(0, 3)
	if g.HasEdge(0, 3) {
		t.Fatal("clone aliased")
	}
}

func TestFromEdges(t *testing.T) {
	g := FromEdges(3, [][2]int{{0, 1}, {1, 2}, {1, 1}})
	if g.M() != 2 {
		t.Fatalf("m=%d", g.M())
	}
}

func TestExactSpannerFacade(t *testing.T) {
	g := RandomConnected(40, 80, 1)
	s := Exact(g)
	if s.Kind != "exact" || s.KConnecting != 1 {
		t.Fatalf("metadata: %+v", s.Kind)
	}
	if err := VerifySpanner(g, s); err != nil {
		t.Fatal(err)
	}
	if len(s.TreeEdges) != g.N() {
		t.Fatal("tree sizes missing")
	}
}

func TestKConnectingFacade(t *testing.T) {
	g := RandomConnected(18, 40, 2)
	s := KConnecting(g, 2)
	if err := VerifySpanner(g, s); err != nil {
		t.Fatal(err)
	}
}

func TestTwoConnectingFacade(t *testing.T) {
	g := RandomConnected(16, 36, 3)
	s := TwoConnecting(g)
	if s.Guarantee.AlphaNum != 2 || s.Guarantee.BetaNum != -1 {
		t.Fatalf("guarantee %v", s.Guarantee)
	}
	if err := VerifySpanner(g, s); err != nil {
		t.Fatal(err)
	}
}

func TestLowStretchFacade(t *testing.T) {
	g := RandomUDG(250, 4, 4)
	s, err := LowStretch(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Radius != 3 {
		t.Fatalf("radius=%d", s.Radius)
	}
	if got := s.Guarantee.String(); got != "(3/2, 0)" {
		t.Fatalf("guarantee string %q", got)
	}
	if err := Verify(g, s.H, s.Guarantee); err != nil {
		t.Fatal(err)
	}
	if s.Edges() >= g.M() {
		t.Fatalf("no sparsification: %d of %d", s.Edges(), g.M())
	}
}

// TestConstructionEdgeCounts pins the edge counts of the four
// constructions on the dense construction workload (the n=400, side-4
// UDG of the BenchmarkConstruct* cells: n = 381, m = 11,500). The
// constructions are deterministic, so any drift is a behavior change.
func TestConstructionEdgeCounts(t *testing.T) {
	g := RandomUDG(400, 4, 1)
	if g.N() != 381 || g.M() != 11500 {
		t.Fatalf("workload graph n=%d m=%d, want n=381 m=11500", g.N(), g.M())
	}
	low, err := LowStretch(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		s    *Spanner
		want int
	}{
		{"Exact", Exact(g), 1968},
		{"KConnecting(3)", KConnecting(g, 3), 4215},
		{"TwoConnecting", TwoConnecting(g), 4300},
		{"LowStretch(0.5)", low, 2356},
	} {
		if got := c.s.Edges(); got != c.want {
			t.Errorf("%s: %d edges, want %d", c.name, got, c.want)
		}
	}
}

// TestForwardingTablesRejectLargeGraphs pins the table engine's limit
// at the facade: at 65,536 vertices BuildForwardingTables and
// NewReplicatedRouter return errors instead of panicking, before any
// table set is allocated (one would be 2·65,536² int32, about 34 GB),
// and BuildForwardingTables rejects a spanner over another vertex
// count.
func TestForwardingTablesRejectLargeGraphs(t *testing.T) {
	big := NewGraph(65536)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if ft, err := BuildForwardingTables(big, big); err == nil || ft != nil || !strings.Contains(err.Error(), "65536") {
		t.Errorf("BuildForwardingTables at n=65536: (%v, %v), want an error naming n", ft, err)
	}
	if rr, err := NewReplicatedRouter(big, 2); err == nil || rr != nil || !strings.Contains(err.Error(), "65536") {
		t.Errorf("NewReplicatedRouter at n=65536: (%v, %v), want an error naming n", rr, err)
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > 16<<20 {
		t.Errorf("rejecting n=65536 allocated %d bytes", d)
	}
	if ft, err := BuildForwardingTables(NewGraph(3), big); err == nil || ft != nil {
		t.Errorf("BuildForwardingTables with a 65536-vertex spanner over a 3-vertex graph: (%v, %v), want an error", ft, err)
	}
}

// TestForwardingTablesFacade checks the facade tables against the
// scalar per-owner builder, and that table routing delivers every pair
// of a connected UDG within d_{H_s}(s, t) hops (§1).
func TestForwardingTablesFacade(t *testing.T) {
	g := RandomUDG(150, 3, 5)
	if !g.Connected() {
		t.Fatal("workload UDG not connected")
	}
	h := Exact(g).H
	ft, err := BuildForwardingTables(g, h)
	if err != nil {
		t.Fatal(err)
	}
	dh := reference.AllPairsDistances(h.raw())
	for s := 0; s < g.N(); s++ {
		dhs := graph.BFS(spanner.View(g.raw(), h.raw(), s), s)
		for tt := 0; tt < g.N(); tt++ {
			if got := ft.Dist(s, tt); got != int(dhs[tt]) {
				t.Fatalf("Dist(%d,%d) = %d, BFS in H_s says %d", s, tt, got, dhs[tt])
			}
			// The next hop starts a shortest H_s path: a G-neighbour w
			// of s from which H alone reaches tt in d_{H_s}(s, tt) − 1.
			w := ft.NextHop(s, tt)
			if s == tt {
				if w != s {
					t.Fatalf("NextHop(%d,%d) = %d, want %d", s, tt, w, s)
				}
			} else if w < 0 || !g.HasEdge(s, w) || dh[w][tt] != dhs[tt]-1 {
				t.Fatalf("NextHop(%d,%d) = %d: not a G-neighbour w with d_H(w, t) = %d", s, tt, w, dhs[tt]-1)
			}
			path, reason, ok := ft.RouteTable(s, tt)
			if !ok || reason != "delivered" {
				t.Fatalf("RouteTable(%d,%d): %s", s, tt, reason)
			}
			if path[0] != s || path[len(path)-1] != tt || len(path)-1 > int(dhs[tt]) {
				t.Fatalf("RouteTable(%d,%d) = %v, want a %d→%d route of at most d_{H_s} = %d hops", s, tt, path, s, tt, dhs[tt])
			}
		}
	}
}

func TestVerifyDetectsBadSpanner(t *testing.T) {
	g := Ring(10)
	empty := NewGraph(10)
	err := Verify(g, empty, IntStretch(1, 0))
	if err == nil {
		t.Fatal("empty spanner accepted")
	}
	if !strings.Contains(err.Error(), "pair") {
		t.Fatalf("unhelpful error: %v", err)
	}

	// Bad input is an error that names it, never a panic or a pass.
	full := g.Clone()
	bad := []struct {
		name string
		err  func() error
		want string
	}{
		{"fewer spanner vertices", func() error { return Verify(g, NewGraph(9), IntStretch(1, 0)) }, "9 vertices, graph has 10"},
		{"more spanner vertices", func() error { return Verify(g, NewGraph(12), IntStretch(1, 0)) }, "12 vertices, graph has 10"},
		{"spanner size", func() error {
			return VerifySpanner(g, &Spanner{H: NewGraph(4), Guarantee: IntStretch(1, 0)})
		}, "4 vertices, graph has 10"},
		{"k-connecting size", func() error { return VerifyKConnecting(g, NewGraph(4), 2, IntStretch(1, 0), nil) }, "4 vertices, graph has 10"},
		{"pair out of range", func() error {
			return VerifyKConnecting(g, full, 2, IntStretch(1, 0), [][2]int{{0, 999}})
		}, "pair (0, 999) outside [0, 10)"},
		{"negative pair", func() error {
			return VerifyKConnecting(g, full, 2, IntStretch(1, 0), [][2]int{{-1, 3}})
		}, "pair (-1, 3) outside [0, 10)"},
		{"k = 0", func() error { return VerifyKConnecting(g, full, 0, IntStretch(1, 0), nil) }, "k = 0"},
		{"k = -1", func() error { return VerifyKConnecting(g, full, -1, IntStretch(1, 0), nil) }, "k = -1"},
		{"zero denominator", func() error { return Verify(g, full, Stretch{AlphaNum: 1, BetaDen: 1}) }, "not well formed"},
		{"negative alpha", func() error { return Verify(g, full, IntStretch(-1, 0)) }, "not well formed"},
		{"k-connecting stretch", func() error {
			return VerifyKConnecting(g, full, 2, Stretch{AlphaNum: 1, AlphaDen: 1, BetaDen: -1}, nil)
		}, "not well formed"},
	}
	for _, c := range bad {
		err := c.err()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming %q", c.name, err, c.want)
		}
		var se *StretchError
		if errors.As(err, &se) != (c.want == "not well formed") {
			t.Errorf("%s: %v is a *StretchError: %v", c.name, err, errors.As(err, &se))
		}
	}
	if err := VerifyKConnecting(g, full, 2, IntStretch(1, 0), [][2]int{{0, 5}}); err != nil {
		t.Fatalf("full graph rejected as its own 2-connecting spanner: %v", err)
	}
}

func TestMeasureStretchFullGraph(t *testing.T) {
	g := Ring(12)
	p := MeasureStretch(g, g.Clone())
	if p.MaxStretch != 1 || p.MaxAdditive != 0 || p.Pairs == 0 {
		t.Fatalf("profile %+v", p)
	}
}

func TestGenerators(t *testing.T) {
	if g := RandomUDG(200, 4, 7); !g.Connected() || g.N() == 0 {
		t.Fatal("UDG should be the connected component")
	}
	if g := RandomUBG(100, 2, 4, 7); g.N() != 100 {
		t.Fatal("UBG node count")
	}
	if g := ErdosRenyi(50, 0.3, 7); g.M() == 0 {
		t.Fatal("ER empty")
	}
	if g := Grid(3, 3); g.M() != 12 {
		t.Fatalf("grid m=%d", g.M())
	}
	if g := Hypercube(3); g.M() != 12 {
		t.Fatalf("hypercube m=%d", g.M())
	}
	a := RandomUDG(150, 4, 9)
	b := RandomUDG(150, 4, 9)
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatal("generators not deterministic in seed")
	}
}

func TestDisjointPathDistance(t *testing.T) {
	g := Ring(6)
	if d := DisjointPathDistance(g, 0, 3, 2); d != 6 {
		t.Fatalf("d2=%d, want 6", d)
	}
	if d := DisjointPathDistance(g, 0, 3, 3); d != -1 {
		t.Fatalf("d3=%d, want -1", d)
	}
}

func TestRouteFacade(t *testing.T) {
	g := RandomUDG(200, 3, 11)
	s := Exact(g)
	path, ok := Route(g, s.H, 0, g.N()-1)
	if !ok {
		t.Fatal("no route")
	}
	if len(path)-1 != g.Distance(0, g.N()-1) {
		t.Fatalf("route len %d, shortest %d", len(path)-1, g.Distance(0, g.N()-1))
	}
}

func TestMultipathRoutesFacade(t *testing.T) {
	g := Ring(8)
	s := TwoConnecting(g)
	paths, total, ok := MultipathRoutes(g, s.H, 0, 4, 2)
	if !ok || len(paths) != 2 {
		t.Fatal("expected 2 disjoint routes on a cycle")
	}
	if total < 8 {
		t.Fatalf("total=%d below cycle length", total)
	}
}

func TestRunDistributedMatchesCentralized(t *testing.T) {
	g := RandomConnected(30, 60, 13)
	res, err := RunDistributed(g, AlgoExact, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds=%d", res.Rounds)
	}
	want := Exact(g)
	if res.H.M() != want.Edges() {
		t.Fatalf("distributed %d vs centralized %d", res.H.M(), want.Edges())
	}
	lsMsgs, lsWords := FullLinkStateCost(g)
	if lsMsgs <= 0 || lsWords <= res.Words {
		t.Fatalf("link-state baseline words %d vs %d", lsWords, res.Words)
	}
}

func TestRunDistributedLowStretch(t *testing.T) {
	g := RandomConnected(25, 50, 14)
	res, err := RunDistributed(g, AlgoLowStretch, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 7 { // r=3 → 2r+1
		t.Fatalf("rounds=%d", res.Rounds)
	}
	low, err := LowStretch(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res.H, low.Guarantee); err != nil {
		t.Fatal(err)
	}
}

func TestRunDistributedErrors(t *testing.T) {
	g := Ring(5)
	if _, err := RunDistributed(g, AlgoKConnecting, 0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := RunDistributed(g, AlgoLowStretch, 0, 2); err == nil {
		t.Fatal("eps=2 accepted")
	}
	if _, err := RunDistributed(g, Algorithm(99), 0, 0); err == nil {
		t.Fatal("bad algo accepted")
	}
}

func TestFloodStatsFacade(t *testing.T) {
	g := RandomUDG(250, 4, 15)
	mpr, blind, covered := FloodStats(g, 1, 0)
	if covered != g.N() {
		t.Fatalf("covered %d of %d", covered, g.N())
	}
	if mpr > blind {
		t.Fatalf("MPR %d > blind %d", mpr, blind)
	}
}

func TestDominatingTreeFacade(t *testing.T) {
	g := RandomConnected(30, 50, 16)
	edges, err := DominatingTree(g, 0, 3, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) == 0 {
		t.Fatal("empty tree on connected graph")
	}
	if _, err := DominatingTree(g, 0, 1, 0, true); err == nil {
		t.Fatal("r=1 accepted")
	}
	if _, err := DominatingTree(g, 0, 3, 0, false); err == nil {
		t.Fatal("MIS beta=0 accepted")
	}
	for _, u := range []int{-1, g.N()} {
		for _, greedy := range []bool{true, false} {
			if _, err := DominatingTree(g, u, 3, 1, greedy); err == nil {
				t.Fatalf("root %d accepted (greedy=%v)", u, greedy)
			}
		}
	}
	mis, err := DominatingTree(g, 0, 3, 1, false)
	if err != nil || len(mis) == 0 {
		t.Fatalf("MIS tree: %v", err)
	}
}

func TestStretchString(t *testing.T) {
	if s := IntStretch(2, -1).String(); s != "(2, -1)" {
		t.Fatalf("got %q", s)
	}
}

func TestDistanceOracleFacade(t *testing.T) {
	g := RandomUDG(250, 4, 21)
	s := Exact(g)
	o := NewOracle(g, s)
	for trial := 0; trial < 40; trial++ {
		u, v := trial%g.N(), (trial*17+3)%g.N()
		want := g.Distance(u, v)
		if got := o.Query(u, v); got != want {
			t.Fatalf("Query(%d,%d)=%d, want %d", u, v, got, want)
		}
	}
	targets := []int{0, 1, 2, 3}
	batch := o.QueryBatch(5, targets)
	c := o.Clone()
	for i, tgt := range targets {
		if c.Query(5, tgt) != batch[i] {
			t.Fatal("batch/clone mismatch")
		}
	}
	if o.StorageWords() >= g.N()*g.N() {
		t.Fatal("no storage savings")
	}
}

// The facade must reject an invalid eps with an error — the same
// contract as RunDistributed — rather than panicking like the internal
// builders do.
func TestLowStretchInvalidEpsErrors(t *testing.T) {
	g := Ring(8)
	for _, eps := range []float64{0, -0.25, 1.5} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("LowStretch panicked on eps=%v: %v", eps, r)
				}
			}()
			s, err := LowStretch(g, eps)
			if err == nil || s != nil {
				t.Fatalf("eps=%v accepted", eps)
			}
		}()
		if _, derr := RunDistributed(g, AlgoLowStretch, 0, eps); derr == nil {
			t.Fatalf("RunDistributed accepted eps=%v", eps)
		}
	}
}

// TestAccessorsPanicWithVertexRange pins the accessor rule of the
// package doc: every facade accessor given a vertex outside [0, n)
// panics with a remspan: message that names the vertex and the range,
// not with a bare index error or an internal package's message.
func TestAccessorsPanicWithVertexRange(t *testing.T) {
	g := Grid(3, 3)
	s := Exact(g)
	ft, err := BuildForwardingTables(g, s.H)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := NewReplicatedRouter(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(g, s)
	const bad = 99
	const want = "remspan: vertex 99 out of range [0, 9)"
	for _, c := range []struct {
		name string
		call func()
	}{
		{"Graph.AddEdge", func() { g.AddEdge(0, bad) }},
		{"Graph.HasEdge", func() { g.HasEdge(bad, 0) }},
		{"Graph.Degree", func() { g.Degree(bad) }},
		{"Graph.Neighbors", func() { g.Neighbors(bad) }},
		{"Graph.Distance", func() { g.Distance(0, bad) }},
		{"Route", func() { Route(g, s.H, 0, bad) }},
		{"MultipathRoutes", func() { MultipathRoutes(g, s.H, bad, 0, 2) }},
		{"DisjointPathDistance", func() { DisjointPathDistance(g, 0, bad, 2) }},
		{"FloodStats", func() { FloodStats(g, 1, bad) }},
		{"ForwardingTables.NextHop", func() { ft.NextHop(0, bad) }},
		{"ForwardingTables.Dist", func() { ft.Dist(bad, 0) }},
		{"ForwardingTables.RouteTable", func() { ft.RouteTable(0, bad) }},
		{"ReplicatedRouter.Route", func() { rr.Route(bad, 0) }},
		{"DistanceOracle.Query", func() { o.Query(0, bad) }},
		{"DistanceOracle.QueryBatch", func() { o.QueryBatch(0, []int{1, bad}) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if got := fmt.Sprint(recover()); got != want {
					t.Fatalf("panic %q, want %q", got, want)
				}
			}()
			c.call()
		})
	}
}

// TestRandomUDGRejectsBadSide pins RandomUDG's panic on a side that is
// not positive and finite. Side 0 used to make the Poisson mean NaN and
// hang the point sampler, so each call runs under a deadline.
func TestRandomUDGRejectsBadSide(t *testing.T) {
	for _, side := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		msg := testutil.PanicWithin(t, 5*time.Second, func() { RandomUDG(10, side, 1) })
		if !strings.HasPrefix(msg, "remspan:") || !strings.Contains(msg, "side") {
			t.Errorf("RandomUDG(10, %v, 1): panic %q, want a remspan: message naming side", side, msg)
		}
	}
	if g := RandomUDG(50, 4, 1); g.N() == 0 {
		t.Fatal("RandomUDG(50, 4, 1) is empty")
	}
}

// TestArgumentPanicsNameTheArgument pins the argument rule of the
// package doc: a generator or construction given an argument outside
// its domain panics with a remspan: message naming it, not with a
// runtime error or an internal package's message. Hypercube is probed
// only where its guard stops it before it allocates 2^d vertices.
func TestArgumentPanicsNameTheArgument(t *testing.T) {
	g := Grid(3, 3)
	s := Exact(g)
	for _, c := range []struct {
		name string
		call func()
		want string
	}{
		{"NewGraph(-1)", func() { NewGraph(-1) }, "remspan: NewGraph needs n >= 0, got n = -1"},
		{"FromEdges(-1)", func() { FromEdges(-1, nil) }, "remspan: FromEdges needs n >= 0, got n = -1"},
		{"FromEdges(2, {0, 5})", func() { FromEdges(2, [][2]int{{0, 5}}) }, "remspan: vertex 5 out of range [0, 2)"},
		{"Grid(-1, 2)", func() { Grid(-1, 2) }, "remspan: Grid needs w, h >= 0, got w = -1, h = 2"},
		{"Grid(-1, -2)", func() { Grid(-1, -2) }, "remspan: Grid needs w, h >= 0, got w = -1, h = -2"},
		{"Ring(-3)", func() { Ring(-3) }, "remspan: Ring needs n >= 0, got n = -3"},
		{"ErdosRenyi(-1)", func() { ErdosRenyi(-1, 0.5, 1) }, "remspan: ErdosRenyi needs n >= 0, got n = -1"},
		{"RandomUDG(-5)", func() { RandomUDG(-5, 4, 1) }, "remspan: RandomUDG needs n >= 0, got n = -5"},
		{"RandomUBG(-1, 2)", func() { RandomUBG(-1, 2, 1, 1) }, "remspan: RandomUBG needs n, dim >= 0, got n = -1, dim = 2"},
		{"RandomUBG(5, -1)", func() { RandomUBG(5, -1, 1, 1) }, "remspan: RandomUBG needs n, dim >= 0, got n = 5, dim = -1"},
		{"Hypercube(-1)", func() { Hypercube(-1) }, "remspan: Hypercube needs 0 <= d <= 30, got d = -1"},
		{"Hypercube(31)", func() { Hypercube(31) }, "remspan: Hypercube needs 0 <= d <= 30, got d = 31"},
		{"Hypercube(64)", func() { Hypercube(64) }, "remspan: Hypercube needs 0 <= d <= 30, got d = 64"},
		{"RandomConnected(-1, 0)", func() { RandomConnected(-1, 0, 1) }, "remspan: RandomConnected needs n >= 0, got n = -1"},
		{"RandomConnected(0, 5)", func() { RandomConnected(0, 5, 1) }, "remspan: RandomConnected needs n >= 1 to add edges, got n = 0, extraEdges = 5"},
		{"KConnecting(g, 0)", func() { KConnecting(g, 0) }, "remspan: KConnecting needs k >= 1, got k = 0"},
		{"FloodStats(g, 0, 0)", func() { FloodStats(g, 0, 0) }, "remspan: FloodStats needs k >= 1, got k = 0"},
		{"Exact(nil)", func() { Exact(nil) }, "remspan: Exact needs a non-nil g"},
		{"KConnecting(nil, 1)", func() { KConnecting(nil, 1) }, "remspan: KConnecting needs a non-nil g"},
		{"TwoConnecting(nil)", func() { TwoConnecting(nil) }, "remspan: TwoConnecting needs a non-nil g"},
		{"NewOracle(nil, s)", func() { NewOracle(nil, s) }, "remspan: NewOracle needs a non-nil g"},
		{"NewOracle(g, nil)", func() { NewOracle(g, nil) }, "remspan: NewOracle needs a non-nil s"},
		{"FullLinkStateCost(nil)", func() { FullLinkStateCost(nil) }, "remspan: FullLinkStateCost needs a non-nil g"},
		{"FloodStats(nil, 1, 0)", func() { FloodStats(nil, 1, 0) }, "remspan: FloodStats needs a non-nil g"},
		{"MeasureStretch(nil, h)", func() { MeasureStretch(nil, s.H) }, "remspan: MeasureStretch needs a non-nil g"},
		{"MeasureStretch(g, nil)", func() { MeasureStretch(g, nil) }, "remspan: MeasureStretch needs a non-nil h"},
		{"DisjointPathDistance(nil)", func() { DisjointPathDistance(nil, 0, 1, 1) }, "remspan: DisjointPathDistance needs a non-nil g"},
		{"Route(nil, h)", func() { Route(nil, s.H, 0, 1) }, "remspan: Route needs a non-nil g"},
		{"Route(g, nil)", func() { Route(g, nil, 0, 1) }, "remspan: Route needs a non-nil h"},
		{"MultipathRoutes(nil, h)", func() { MultipathRoutes(nil, s.H, 0, 1, 1) }, "remspan: MultipathRoutes needs a non-nil g"},
		{"MultipathRoutes(g, nil)", func() { MultipathRoutes(g, nil, 0, 1, 1) }, "remspan: MultipathRoutes needs a non-nil h"},
	} {
		if got := testutil.PanicWithin(t, 5*time.Second, c.call); got != c.want {
			t.Errorf("%s: panic %q, want %q", c.name, got, c.want)
		}
	}
	if NewGraph(0).N() != 0 || Ring(0).N() != 0 || Hypercube(0).N() != 1 || RandomConnected(0, 0, 1).N() != 0 {
		t.Fatal("a zero-size argument was rejected")
	}
}

// TestNilArgumentErrorsNameTheArgument pins the nil rule of the package
// doc for the functions with an error result: a nil graph or spanner is
// an error naming the argument, not a nil dereference.
func TestNilArgumentErrorsNameTheArgument(t *testing.T) {
	g := Grid(3, 3)
	s := Exact(g)
	st := IntStretch(1, 0)
	for _, c := range []struct {
		name string
		call func() error
		want string
	}{
		{"RunDistributed(nil)", func() error { _, err := RunDistributed(nil, AlgoExact, 1, 0); return err }, "remspan: RunDistributed needs a non-nil g"},
		{"LowStretch(nil)", func() error { _, err := LowStretch(nil, 0.5); return err }, "remspan: LowStretch needs a non-nil g"},
		{"DominatingTree(nil)", func() error { _, err := DominatingTree(nil, 0, 2, 1, true); return err }, "remspan: DominatingTree needs a non-nil g"},
		{"NewReplicatedRouter(nil)", func() error { _, err := NewReplicatedRouter(nil, 1); return err }, "remspan: NewReplicatedRouter needs a non-nil g"},
		{"BuildForwardingTables(nil, h)", func() error { _, err := BuildForwardingTables(nil, s.H); return err }, "remspan: BuildForwardingTables needs a non-nil g"},
		{"BuildForwardingTables(g, nil)", func() error { _, err := BuildForwardingTables(g, nil); return err }, "remspan: BuildForwardingTables needs a non-nil h"},
		{"Verify(nil, h)", func() error { return Verify(nil, s.H, st) }, "remspan: Verify needs a non-nil g"},
		{"Verify(g, nil)", func() error { return Verify(g, nil, st) }, "remspan: Verify needs a non-nil h"},
		{"VerifySpanner(nil, s)", func() error { return VerifySpanner(nil, s) }, "remspan: VerifySpanner needs a non-nil g"},
		{"VerifySpanner(g, nil)", func() error { return VerifySpanner(g, nil) }, "remspan: VerifySpanner needs a non-nil s"},
		{"VerifyKConnecting(nil, h)", func() error { return VerifyKConnecting(nil, s.H, 1, st, nil) }, "remspan: VerifyKConnecting needs a non-nil g"},
		{"VerifyKConnecting(g, nil)", func() error { return VerifyKConnecting(g, nil, 1, st, nil) }, "remspan: VerifyKConnecting needs a non-nil h"},
	} {
		if err := c.call(); err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
}
