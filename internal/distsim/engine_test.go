package distsim

import (
	"math/rand"
	"slices"
	"testing"

	"remspan/internal/domtree"
	"remspan/internal/dynamic"
	"remspan/internal/gen"
	"remspan/internal/geom"
	"remspan/internal/graph"
	"remspan/internal/reference"
	"remspan/internal/testutil"
)

// centralizedSpanner is the ground-truth union-of-trees construction on
// one global CSR snapshot.
func centralizedSpanner(g *graph.Graph, build TreeBuilder) *graph.EdgeSet {
	var edges [][2]int32
	c := graph.NewCSR(g)
	s := domtree.NewScratch(g.N())
	for u := 0; u < g.N(); u++ {
		edges = append(edges, build(c, s, u).Edges()...)
	}
	return graph.NewEdgeSet(g.N(), edges)
}

func edgeSetsEqual(a, b *graph.EdgeSet) bool { return a.Equal(b) }

// testFamilies are the generator families the differential tests sweep:
// UDG, Erdős–Rényi, grid and star — connected and disconnected.
func testFamilies(n int, seed int64) map[string]*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	udg := geom.UnitDiskGraph(geom.UniformBox(n, 2, 4, rng), 1.0)
	er := gen.ErdosRenyi(n, 3/float64(n), rng)      // typically disconnected
	erDense := gen.ErdosRenyi(n, 8/float64(n), rng) // mostly connected
	side := 1
	for side*side < n {
		side++
	}
	return map[string]*graph.Graph{
		"udg":      udg, // disconnected stragglers are part of the workload
		"er":       er,
		"er-dense": erDense,
		"grid":     gen.Grid(side, (n+side-1)/side),
		"star":     reference.Star(n),
	}
}

// TestEngineMatchesReference is the engine-level differential: on every
// family and for every production builder, the fast engine must agree
// with the message-level reference on rounds, messages, words and the
// spanner itself — the ball-structure traffic accounting is exact, not
// an estimate.
func TestEngineMatchesReference(t *testing.T) {
	for fam, g := range testFamilies(48, 11) {
		for _, p := range enginePairs() {
			fast := RunRemSpan(g, p.radius, p.build)
			ref, _ := RunRemSpanReference(g, p.radius, p.algo)
			if fast.Rounds != ref.Rounds {
				t.Fatalf("%s/%s: rounds %d vs %d", fam, p.name, fast.Rounds, ref.Rounds)
			}
			if fast.Messages != ref.Messages {
				t.Fatalf("%s/%s: messages %d vs %d", fam, p.name, fast.Messages, ref.Messages)
			}
			if fast.Words != ref.Words {
				t.Fatalf("%s/%s: words %d vs %d", fam, p.name, fast.Words, ref.Words)
			}
			if !edgeSetsEqual(fast.H, ref.H) {
				t.Fatalf("%s/%s: spanners differ (%d vs %d edges)",
					fam, p.name, fast.H.Len(), ref.H.Len())
			}
			for u := range fast.TreeEdges {
				if fast.TreeEdges[u] != ref.TreeEdges[u] {
					t.Fatalf("%s/%s: tree size of root %d differs: %d vs %d",
						fam, p.name, u, fast.TreeEdges[u], ref.TreeEdges[u])
				}
			}
		}
	}
}

// TestRoundsFormula pins the paper's "constant time" claim as a
// property: Rounds == 2(r−1+β)+1 = 2R+1 for every builder family,
// independent of n and of the graph family.
func TestRoundsFormula(t *testing.T) {
	for _, n := range []int{24, 96, 240} {
		for fam, g := range testFamilies(n, int64(n)) {
			for _, p := range enginePairs() {
				res := RunRemSpan(g, p.radius, p.build)
				if want := 2*p.radius + 1; res.Rounds != want {
					t.Fatalf("%s/%s n=%d: rounds=%d, want %d", fam, p.name, n, res.Rounds, want)
				}
			}
		}
	}
}

// TestWordsBelowFullLinkState pins the advertisement-economy claim:
// above a small n, RemSpan's total words stay below full link-state
// flooding on the sparse bounded-degree families the paper targets.
func TestWordsBelowFullLinkState(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{100, 256, 500} {
		side := 1
		for side*side < n {
			side++
		}
		workloads := map[string]*graph.Graph{
			"udg":  geom.UnitDiskGraph(geom.UniformBox(n, 2, 6, rng), 1.0),
			"grid": gen.Grid(side, (n+side-1)/side),
		}
		for fam, g := range workloads {
			for _, p := range enginePairs() {
				res := RunRemSpan(g, p.radius, p.build)
				_, fullWords := FullLinkState(g)
				if res.Words > fullWords {
					t.Fatalf("%s/%s n=%d: RemSpan words %d exceed full link-state %d",
						fam, p.name, n, res.Words, fullWords)
				}
			}
		}
	}
}

// localTree is the locality oracle: root u's tree built the node-local
// way of Algorithm 3 — the production builder runs on u's radius-R
// ball, extracted from view into a sub-CSR (everything u learns from
// R flooding rounds), and the tree is mapped back to global ids.
func localTree(ball *graph.BallScratch, s *domtree.Scratch, view graph.View, radius int, build TreeBuilder, u int) [][2]int32 {
	local, root, members := ball.Extract(view, u, radius)
	t := build(local, s, root)
	var out [][2]int32
	for _, lv := range t.Nodes() {
		if lp := t.Parent(int(lv)); lp >= 0 {
			out = append(out, [2]int32{members[lv], members[lp]})
		}
	}
	return out
}

// checkLocality pins every root's engine tree — built by the
// maintainer on the global patched snapshot — against the locality
// oracle on the engine's current topology.
func checkLocality(t *testing.T, what string, e *Engine, build TreeBuilder) {
	t.Helper()
	n := e.Graph().N()
	ball, s := graph.NewBallScratch(n), domtree.NewScratch(n)
	for u := 0; u < n; u++ {
		if want := localTree(ball, s, e.m.View(), e.radius, build, u); !slices.Equal(e.m.TreeOf(u), want) {
			t.Fatalf("%s: tree of root %d differs from its ball-local build", what, u)
		}
	}
}

// FuzzDistsimEquivalence: RunRemSpan over every gen family (UDG, ER,
// grid, star — connected and disconnected) must produce an edge set
// identical to the centralized CSR builders for all four tree
// algorithms, with full incident knowledge at every node, and agree
// with the message-level reference engine on traffic. It is also the
// locality oracle's pin: every root's engine tree, after the run and
// after a churn tick, equals the builder run on the root's extracted
// radius-R ball (the node-local computation of Algorithm 3).
func FuzzDistsimEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(7), uint8(1))
	f.Add(int64(42), uint8(2))
	f.Add(int64(99), uint8(3))
	f.Add(int64(1234), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, famSel uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(16)
		var g *graph.Graph
		switch famSel % 5 {
		case 0:
			g = geom.UnitDiskGraph(geom.UniformBox(n, 2, 3, rng), 1.0)
		case 1:
			g = gen.ErdosRenyi(n, 2.5/float64(n), rng) // disconnected
		case 2:
			g = gen.ErdosRenyi(n, 8/float64(n), rng)
		case 3:
			g = gen.Grid(3+rng.Intn(4), 3+rng.Intn(4))
		default:
			g = reference.Star(n)
		}
		for _, p := range enginePairs() {
			e := NewEngine(g, p.radius, p.build)
			fast := e.Run()
			checkLocality(t, p.name, e, p.build)
			if want := centralizedSpanner(g, p.build); !edgeSetsEqual(fast.H, want) {
				t.Fatalf("%s: distributed spanner differs from centralized (%d vs %d edges)",
					p.name, fast.H.Len(), want.Len())
			}
			if bad := checkIncidentKnowledge(e, fast); bad != -1 {
				t.Fatalf("%s: node %d missing incident knowledge", p.name, bad)
			}
			ref, _ := RunRemSpanReference(g, p.radius, p.algo)
			if fast.Messages != ref.Messages || fast.Words != ref.Words || fast.Rounds != ref.Rounds {
				t.Fatalf("%s: traffic diverged from reference: (%d,%d,%d) vs (%d,%d,%d)",
					p.name, fast.Messages, fast.Words, fast.Rounds,
					ref.Messages, ref.Words, ref.Rounds)
			}
			e.Reflood(randomBatch(e, rng, 4))
			checkLocality(t, p.name+" after churn", e, p.build)
		}
	})
}

// randomBatch draws size changes over e's graph: edge toggles and, one
// time in eight, a vertex failure.
func randomBatch(e *Engine, rng *rand.Rand, size int) []dynamic.Change {
	n := e.m.View().N()
	batch := make([]dynamic.Change, 0, size)
	for len(batch) < size {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		kind := dynamic.AddEdge
		if e.m.View().HasEdge(u, v) {
			kind = dynamic.RemoveEdge
		}
		if rng.Intn(8) == 0 {
			kind = dynamic.FailVertex
		}
		batch = append(batch, dynamic.Change{Kind: kind, U: u, V: v})
	}
	return batch
}

// TestRefloodMatchesMaintainer drives the engine through random change
// batches and pins every intermediate spanner — and every per-root
// tree — against dynamic.Maintainer ground truth.
func TestRefloodMatchesMaintainer(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, spec := range dynamic.Builders() {
		g := randomConnected(40, 70, rng)
		e := NewEngine(g, spec.Radius, TreeBuilder(spec.Build))
		e.Run()
		m := dynamic.New(g, spec.Radius, spec.Build)
		for step := 0; step < 12; step++ {
			batch := make([]dynamic.Change, 0, 6)
			for len(batch) < cap(batch) {
				u, v := rng.Intn(g.N()), rng.Intn(g.N())
				if u == v {
					continue
				}
				kind := dynamic.AddEdge
				if e.m.View().HasEdge(u, v) {
					kind = dynamic.RemoveEdge
				}
				if rng.Intn(8) == 0 {
					kind = dynamic.FailVertex
				}
				batch = append(batch, dynamic.Change{Kind: kind, U: u, V: v})
			}
			st := e.Reflood(batch)
			m.ApplyBatch(batch)
			if !edgeSetsEqual(e.Spanner(), m.Spanner()) {
				t.Fatalf("%s step %d: engine spanner diverged from maintainer", spec.Name, step)
			}
			for u := 0; u < g.N(); u++ {
				if !slices.Equal(e.m.TreeOf(u), m.TreeOf(u)) {
					t.Fatalf("%s step %d root %d: tree differs from the maintainer's", spec.Name, step, u)
				}
			}
			if st.Applied > 0 && st.DirtyRoots == 0 {
				t.Fatalf("%s step %d: applied %d changes but no dirty roots", spec.Name, step, st.Applied)
			}
		}
	}
}

// TestRunAfterRefloodMatchesRunRemSpan: after several Reflood ticks
// (vertex failures and a lossy tick included), Run on the live engine
// reports the same rounds, messages, words, tree sizes and spanner as
// a fresh RunRemSpan on the final graph — the per-source tally over
// the maintainer's patched topology equals a cold run.
func TestRunAfterRefloodMatchesRunRemSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, p := range enginePairs() {
		g := randomConnected(60, 110, rng)
		e := NewEngine(g, p.radius, p.build)
		e.Run()
		dropRng := rand.New(rand.NewSource(36))
		for tick := 0; tick < 6; tick++ {
			if tick == 3 {
				e.RefloodLossy(randomBatch(e, rng, 8), func(int32) bool { return dropRng.Intn(4) == 0 })
				continue
			}
			e.Reflood(randomBatch(e, rng, 8))
		}
		live := e.Run()
		cold := RunRemSpan(e.Graph(), p.radius, p.build)
		if live.Rounds != cold.Rounds || live.Messages != cold.Messages || live.Words != cold.Words {
			t.Fatalf("%s: live run (%d,%d,%d) vs cold run (%d,%d,%d)", p.name,
				live.Rounds, live.Messages, live.Words, cold.Rounds, cold.Messages, cold.Words)
		}
		if !slices.Equal(live.TreeEdges, cold.TreeEdges) {
			t.Fatalf("%s: live tree sizes differ from the cold run's", p.name)
		}
		if !edgeSetsEqual(live.H, cold.H) {
			t.Fatalf("%s: live spanner differs from the cold run's", p.name)
		}
	}
}

// TestRefloodsCountChangedTrees: TickStats.Refloods is the number of
// due roots whose tree differs from a copy taken before the tick. Roots
// that are not due — clean, or dropped by the lossy channel — keep
// their trees, so the count runs over every root.
func TestRefloodsCountChangedTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, p := range enginePairs() {
		g := randomConnected(50, 90, rng)
		e := NewEngine(g, p.radius, p.build)
		e.Run()
		dropRng := rand.New(rand.NewSource(38))
		drop := func(int32) bool { return dropRng.Intn(5) == 0 }
		total := 0
		for tick := 0; tick < 8; tick++ {
			before := make([][][2]int32, g.N())
			for u := range before {
				before[u] = slices.Clone(e.m.TreeOf(u))
			}
			var st TickStats
			if tick%2 == 1 {
				st = e.RefloodLossy(randomBatch(e, rng, 6), drop)
			} else {
				st = e.Reflood(randomBatch(e, rng, 6))
			}
			changed := 0
			for u := range before {
				if !slices.Equal(before[u], e.m.TreeOf(u)) {
					changed++
				}
			}
			if st.Refloods != changed {
				t.Fatalf("%s tick %d: Refloods %d, but %d trees changed", p.name, tick, st.Refloods, changed)
			}
			total += changed
		}
		if total == 0 {
			t.Fatalf("%s: no tick changed a tree — vacuous run", p.name)
		}
	}
}

// TestRefloodTrafficSanity: a tick that changes nothing costs nothing;
// a tick that applies changes re-advertises something, and the full
// link-state baseline is never cheaper than the incremental path on a
// non-trivial network.
func TestRefloodTrafficSanity(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := randomConnected(120, 240, rng)
	e := NewEngine(g, 1, kgreedyCSR(1))
	e.Run()

	st := e.Reflood([]dynamic.Change{{Kind: dynamic.RemoveEdge, U: 0, V: 0}})
	if st.Applied != 0 || st.Messages != 0 || st.Words != 0 || st.DirtyRoots != 0 {
		t.Fatalf("no-op tick produced traffic: %+v", st)
	}

	u, v := 0, 1
	for g.HasEdge(u, v) {
		v++
	}
	st = e.Reflood([]dynamic.Change{{Kind: dynamic.AddEdge, U: u, V: v}})
	if st.Applied != 1 || st.Words == 0 || st.DirtyRoots == 0 {
		t.Fatalf("effective tick produced no traffic: %+v", st)
	}
	if st.FullWords < st.Words {
		t.Fatalf("full link-state re-flood (%d words) cheaper than incremental (%d)",
			st.FullWords, st.Words)
	}
}

// TestEngineTickZeroAlloc pins the allocation-free steady state of the
// live path: toggling an edge on a warm engine — dirty sweeps, ball
// extraction, tree rebuilds, re-advertisement accounting — must not
// allocate at all.
func TestEngineTickZeroAlloc(t *testing.T) {
	g := gen.Grid(40, 50) // n=2000
	e := NewEngine(g, 1, kgreedyCSR(1))
	e.Run()
	add := []dynamic.Change{{Kind: dynamic.AddEdge, U: 0, V: 41}}
	del := []dynamic.Change{{Kind: dynamic.RemoveEdge, U: 0, V: 41}}
	for i := 0; i < 4; i++ { // warm delta rows, tree buffers, sweeps
		e.Reflood(add)
		e.Reflood(del)
	}
	testutil.PinAllocs(t, "steady-state toggle pair", 50, func() {
		e.Reflood(add)
		e.Reflood(del)
	})
}

// TestBallDepthInvariant: the engine panics if a builder emits a tree
// deeper than the flooding radius (the protocol could not deliver it);
// the check lives in the maintainer the engine's first Run creates.
func TestBallDepthInvariant(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for tree deeper than flooding radius")
		}
	}()
	// MIS with r=3 needs flooding radius 3; radius 2 must be rejected.
	// The gadget forces a depth-3 tree member at root 0: b1 (id 2) joins
	// the MIS first and removes b2, leaving c uncovered until its own
	// turn — added via the depth-3 path 0–1–3–4.
	g := graph.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 3}, {3, 4}})
	RunRemSpan(g, 2, misCSR(3))
}

// TestRefloodLossyConvergence drives the engine through churn with a
// seeded lossy re-advertisement channel: dropped roots keep their
// stale trees (the rest of the network never hears the update), are
// counted in Lost, and retransmit next tick. Once the loss stops, one
// clean tick flushes the retransmission backlog and the spanner — and
// every per-root tree — is bit-identical to the dynamic.Maintainer
// ground truth again. The whole run replays exactly under the seed.
func TestRefloodLossyConvergence(t *testing.T) {
	run := func() (totalLost int, lostTicks int) {
		rng := rand.New(rand.NewSource(61))
		g := randomConnected(40, 70, rng)
		e := NewEngine(g, 1, kgreedyCSR(1))
		e.Run()
		m := dynamic.New(g, 1, dynamic.Builders()[0].Build)

		dropRng := rand.New(rand.NewSource(62))
		drop := func(root int32) bool { return dropRng.Intn(100) < 40 }

		for step := 0; step < 10; step++ {
			batch := make([]dynamic.Change, 0, 6)
			for len(batch) < cap(batch) {
				u, v := rng.Intn(g.N()), rng.Intn(g.N())
				if u == v {
					continue
				}
				kind := dynamic.AddEdge
				if e.m.View().HasEdge(u, v) {
					kind = dynamic.RemoveEdge
				}
				batch = append(batch, dynamic.Change{Kind: kind, U: u, V: v})
			}
			st := e.RefloodLossy(batch, drop)
			m.ApplyBatch(batch)
			if st.Lost > 0 {
				totalLost += st.Lost
				lostTicks++
			}
			if st.Refloods > st.DirtyRoots-st.Lost {
				t.Fatalf("step %d: refloods %d exceed surviving roots %d",
					step, st.Refloods, st.DirtyRoots-st.Lost)
			}
		}

		// Channel heals: one empty tick retransmits the backlog.
		st := e.RefloodLossy(nil, nil)
		if st.Applied != 0 {
			t.Fatalf("heal tick applied %d changes", st.Applied)
		}
		if st.Lost != 0 {
			t.Fatalf("heal tick lost %d re-advertisements on a clean channel", st.Lost)
		}
		if !edgeSetsEqual(e.Spanner(), m.Spanner()) {
			t.Fatal("spanner did not reconverge to maintainer after channel healed")
		}
		for u := 0; u < g.N(); u++ {
			if !slices.Equal(e.m.TreeOf(u), m.TreeOf(u)) {
				t.Fatalf("root %d: tree differs from the maintainer's after heal", u)
			}
		}

		// A second clean tick is a true no-op: the backlog is flushed.
		st = e.Reflood(nil)
		if st.DirtyRoots != 0 || st.Refloods != 0 || st.Words != 0 {
			t.Fatalf("post-heal tick not quiescent: %+v", st)
		}
		return totalLost, lostTicks
	}

	lost1, ticks1 := run()
	if lost1 == 0 {
		t.Fatal("lossy channel never dropped a re-advertisement")
	}
	lost2, ticks2 := run()
	if lost1 != lost2 || ticks1 != ticks2 {
		t.Fatalf("lossy run not deterministic: (%d,%d) vs (%d,%d)", lost1, ticks1, lost2, ticks2)
	}
}
