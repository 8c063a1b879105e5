package distsim

import (
	"math/rand"
	"testing"

	"remspan/internal/domtree"
	"remspan/internal/dynamic"
	"remspan/internal/gen"
	"remspan/internal/geom"
	"remspan/internal/graph"
	"remspan/internal/reference"
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

// enginePair couples the production builder the fast engine runs with
// the map-based algorithm the reference engine runs — the same
// (builder, radius) table as dynamic.Builders().
type enginePair struct {
	name   string
	radius int
	build  TreeBuilder
	algo   refAlgo
}

// refAlgos maps each dynamic.Builders() name to its map-based twin.
var refAlgos = map[string]refAlgo{
	"kgreedy1": func(local *graph.Graph, u int) *graph.Tree { return reference.KGreedy(local, u, 1) },
	"kmis2":    func(local *graph.Graph, u int) *graph.Tree { return reference.KMIS(local, u, 2) },
	"mis3":     func(local *graph.Graph, u int) *graph.Tree { return reference.MIS(local, nil, u, 3) },
	"greedy3":  func(local *graph.Graph, u int) *graph.Tree { return reference.Greedy(local, nil, u, 3, 1) },
}

func enginePairs() []enginePair {
	specs := dynamic.Builders()
	out := make([]enginePair, 0, len(specs))
	for _, s := range specs {
		out = append(out, enginePair{name: s.Name, radius: s.Radius, build: TreeBuilder(s.Build), algo: refAlgos[s.Name]})
	}
	return out
}

func kgreedyCSR(k int) TreeBuilder {
	return func(c graph.View, s *domtree.Scratch, u int) *graph.Tree {
		return domtree.KGreedyCSR(c, s, u, k)
	}
}

func kmisCSR(k int) TreeBuilder {
	return func(c graph.View, s *domtree.Scratch, u int) *graph.Tree {
		return domtree.KMISCSR(c, s, u, k)
	}
}

func misCSR(r int) TreeBuilder {
	return func(c graph.View, s *domtree.Scratch, u int) *graph.Tree {
		return domtree.MISCSR(c, s, u, r)
	}
}

func TestSimSendRules(t *testing.T) {
	g := gen.Path(3)
	s := NewSim(g)
	s.Send(0, 1, KindHello, []int32{0})
	if s.Messages != 1 || s.Words != 3 {
		t.Fatalf("messages=%d words=%d", s.Messages, s.Words)
	}
	in := s.Step()
	if len(in[1]) != 1 || in[1][0].From != 0 {
		t.Fatal("message not delivered")
	}
	if s.Round != 1 {
		t.Fatalf("round=%d", s.Round)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-link send")
		}
	}()
	s.Send(0, 2, KindHello, nil)
}

func TestSimBroadcast(t *testing.T) {
	g := reference.Star(5)
	s := NewSim(g)
	s.Broadcast(0, KindHello, []int32{0})
	if s.Messages != 4 {
		t.Fatalf("messages=%d, want 4", s.Messages)
	}
	in := s.Step()
	for v := 1; v < 5; v++ {
		if len(in[v]) != 1 {
			t.Fatalf("leaf %d got %d messages", v, len(in[v]))
		}
	}
}

func TestRemSpanMatchesCentralizedMPR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		g := randomConnected(15+rng.Intn(25), 40, rng)
		res := RunRemSpan(g, 1, kgreedyCSR(1))
		want := spanner.Exact(g)
		if res.H.Len() != want.Edges() {
			t.Fatalf("trial %d: distributed %d edges, centralized %d",
				trial, res.H.Len(), want.Edges())
		}
		de, ce := res.H.Edges(), want.H.Edges()
		for i := range de {
			if de[i] != ce[i] {
				t.Fatalf("trial %d: edge sets differ at %d", trial, i)
			}
		}
		if res.Rounds != 3 { // 2(r−1+β)+1 with r=2, β=0
			t.Fatalf("rounds=%d, want 3", res.Rounds)
		}
	}
}

func TestRemSpanMatchesCentralizedLowStretch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 6; trial++ {
		g := randomConnected(20+rng.Intn(20), 40, rng)
		r := 3 // eps = 0.5
		res := RunRemSpan(g, r, misCSR(r))
		want := spanner.LowStretch(g, 0.5)
		if res.H.Len() != want.Edges() {
			t.Fatalf("trial %d: distributed %d edges, centralized %d",
				trial, res.H.Len(), want.Edges())
		}
		if res.Rounds != 2*r+1 {
			t.Fatalf("rounds=%d, want %d", res.Rounds, 2*r+1)
		}
	}
}

func TestRemSpanMatchesCentralizedTwoConnecting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnected(30, 60, rng)
	res := RunRemSpan(g, 2, kmisCSR(2))
	want := spanner.TwoConnecting(g)
	if res.H.Len() != want.Edges() {
		t.Fatalf("distributed %d edges, centralized %d", res.H.Len(), want.Edges())
	}
	if res.Rounds != 5 { // 2(2-1+1)+1
		t.Fatalf("rounds=%d, want 5", res.Rounds)
	}
}

func TestIncidentKnowledge(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 8; trial++ {
		g := randomConnected(15+rng.Intn(20), 35, rng)
		e := NewEngine(g, 1, kgreedyCSR(2))
		res := e.Run()
		if bad := checkIncidentKnowledge(e, res); bad != -1 {
			t.Fatalf("trial %d: node %d missing incident knowledge", trial, bad)
		}
		ref, incident := RunRemSpanReference(g, 1, func(local *graph.Graph, u int) *graph.Tree {
			return reference.KGreedy(local, u, 2)
		})
		if bad := checkIncidentReference(ref.H, incident); bad != -1 {
			t.Fatalf("trial %d: reference node %d missing incident knowledge", trial, bad)
		}
	}
}

func TestConstantRounds(t *testing.T) {
	// Rounds must not grow with n — the paper's headline claim. Pinned
	// per builder family in TestRoundsFormula; this is the UDG workload.
	rng := rand.New(rand.NewSource(5))
	var rounds []int
	for _, n := range []int{20, 60, 140} {
		pts := geom.UniformBox(n, 2, 3, rng)
		g := geom.UnitDiskGraph(pts, 1.2)
		keep, _ := graph.LargestComponent(g)
		g = g.InducedSubgraph(keep)
		if g.N() < 5 {
			t.Skip("degenerate UDG")
		}
		res := RunRemSpan(g, 1, kgreedyCSR(1))
		rounds = append(rounds, res.Rounds)
	}
	for _, r := range rounds {
		if r != rounds[0] {
			t.Fatalf("rounds vary with n: %v", rounds)
		}
	}
}

func TestRemSpanCheaperThanFullLinkState(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := geom.UniformBox(150, 2, 3, rng)
	g := geom.UnitDiskGraph(pts, 1.0)
	keep, _ := graph.LargestComponent(g)
	g = g.InducedSubgraph(keep)
	res := RunRemSpan(g, 1, kgreedyCSR(1))
	_, fullWords := FullLinkState(g)
	if res.Words >= fullWords {
		t.Fatalf("RemSpan words %d not below full link-state %d", res.Words, fullWords)
	}
}

func TestTreeFloodReachesAllMembers(t *testing.T) {
	// Every tree edge endpoint lies within the flooding radius of the
	// root (the engine's depth invariant), so the per-node incident
	// knowledge must cover the entire union H — which is exactly what
	// checkIncidentKnowledge reconstructs from the flood structure.
	rng := rand.New(rand.NewSource(7))
	g := randomConnected(25, 50, rng)
	e := NewEngine(g, 2, kmisCSR(2))
	res := e.Run()
	if bad := checkIncidentKnowledge(e, res); bad != -1 {
		t.Fatalf("node %d lacks incident knowledge", bad)
	}
	ref, incident := RunRemSpanReference(g, 2, func(local *graph.Graph, u int) *graph.Tree {
		return reference.KMIS(local, u, 2)
	})
	var all [][2]int32
	for _, inc := range incident {
		all = append(all, inc.Edges()...)
	}
	union := graph.NewEdgeSet(g.N(), all)
	if union.Len() != ref.H.Len() {
		t.Fatalf("incident union %d edges, spanner %d", union.Len(), ref.H.Len())
	}
}
