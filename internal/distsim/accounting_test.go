package distsim

import (
	"testing"

	"remspan/internal/gen"
	"remspan/internal/graph"
	"remspan/internal/reference"
)

// Exact traffic accounting on a fixed small topology: the 5-cycle with
// MPR trees (radius 1). Both engines must produce the hand-computed
// counts.
func TestRemSpanAccountingOnRing(t *testing.T) {
	g := gen.Ring(5)
	e := NewEngine(g, 1, kgreedyCSR(1))
	engine := e.Run()
	ref, incident := RunRemSpanReference(g, 1, func(local *graph.Graph, u int) *graph.Tree {
		return reference.KGreedy(local, u, 1)
	})
	for name, res := range map[string]*Result{"engine": engine, "reference": ref} {
		// Rounds: hello + 1 topo + 1 tree = 3.
		if res.Rounds != 3 {
			t.Fatalf("%s: rounds=%d", name, res.Rounds)
		}
		// Hello: every node to both neighbors = 10 messages.
		// Topo: each node floods its own list once: 10 messages.
		// Tree: each node floods its tree once: 10 messages.
		if res.Messages != 30 {
			t.Fatalf("%s: messages=%d, want 30", name, res.Messages)
		}
		// On a cycle every node's MPR tree must cover both distance-2
		// vertices → both neighbors selected → spanner = all 5 edges.
		if res.H.Len() != 5 {
			t.Fatalf("%s: spanner edges=%d, want 5", name, res.H.Len())
		}
	}
	if bad := checkIncidentKnowledge(e, engine); bad != -1 {
		t.Fatalf("engine: node %d lacks incident knowledge", bad)
	}
	if bad := checkIncidentReference(ref.H, incident); bad != -1 {
		t.Fatalf("reference: node %d lacks incident knowledge", bad)
	}
}

// Radius-2 flooding doubles the topo/tree rounds and grows messages
// accordingly (each item forwarded by the two distance-1 nodes too).
func TestRemSpanAccountingRadius2(t *testing.T) {
	g := gen.Ring(6)
	ref, _ := RunRemSpanReference(g, 2, func(local *graph.Graph, u int) *graph.Tree {
		return reference.KMIS(local, u, 1)
	})
	for name, res := range map[string]*Result{"engine": RunRemSpan(g, 2, kmisCSR(1)), "reference": ref} {
		if res.Rounds != 5 {
			t.Fatalf("%s: rounds=%d, want 5", name, res.Rounds)
		}
		// Topo flooding radius 2 on a cycle: each of the 6 lists is sent by
		// its origin (2 msgs) and forwarded by 2 neighbors (2×2 msgs) = 36
		// total; hello adds 12; trees flood like topo.
		wantHello := int64(12)
		wantTopo := int64(6 * (2 + 4))
		wantTree := int64(6 * (2 + 4))
		if res.Messages != wantHello+wantTopo+wantTree {
			t.Fatalf("%s: messages=%d, want %d", name, res.Messages, wantHello+wantTopo+wantTree)
		}
	}
}

// Words must strictly exceed messages (every payload has ≥1 word plus
// framing).
func TestWordsDominateMessages(t *testing.T) {
	g := gen.Grid(4, 4)
	res := RunRemSpan(g, 1, kgreedyCSR(1))
	if res.Words <= res.Messages {
		t.Fatalf("words=%d should exceed messages=%d", res.Words, res.Messages)
	}
}

// The local views built from flooded lists must suffice: running on a
// path (where distance-2 knowledge is one-sided at the ends) still
// matches the centralized result.
func TestRemSpanOnPathEdges(t *testing.T) {
	g := gen.Path(7)
	res := RunRemSpan(g, 1, kgreedyCSR(1))
	// On a path, every internal node is the unique relay for its
	// neighbors: spanner = all edges.
	if res.H.Len() != 6 {
		t.Fatalf("path spanner edges=%d, want 6", res.H.Len())
	}
}
