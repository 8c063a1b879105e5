package distsim

import (
	"fmt"

	"remspan/internal/graph"
)

// The message-level reference engine of Algorithm 3: per-node map
// state, real payload slices and a synchronous round runtime (Sim).
// The production Engine's ball-structure traffic accounting and its
// trees are pinned against it on rounds, messages, words and the
// spanner (TestEngineMatchesReference, FuzzDistsimEquivalence), and
// BenchmarkDistsim measures it as the ablation baseline.

// refAlgo computes root u's dominating tree from u's local topology
// knowledge (the adjacency lists of every node within the flooding
// radius) materialized as a mutable graph — the map-based builders of
// internal/reference satisfy the locality contract.
type refAlgo func(local *graph.Graph, u int) *graph.Tree

// Message is a point-to-point protocol message delivered at the start
// of the round after it was sent.
type Message struct {
	From, To int32
	Kind     uint8
	Words    []int32
}

// Message kinds of the RemSpan protocol.
const (
	KindHello uint8 = iota // payload: [id]
	KindTopo               // payload: [src, deg, neighbors...]
	KindTree               // payload: [root, nEdges, a1, b1, a2, b2, ...]
)

// Sim is a synchronous network over a graph: nodes send messages during
// a round; the runtime delivers them at the next round boundary and
// tallies traffic.
type Sim struct {
	G        *graph.Graph
	Round    int
	Messages int64
	Words    int64

	outbox [][]Message
}

// NewSim returns a simulator over g with empty queues.
func NewSim(g *graph.Graph) *Sim {
	return &Sim{G: g, outbox: make([][]Message, g.N())}
}

// Send enqueues a message from→to for delivery next round. to must be a
// G-neighbor of from — the paper's model only allows link-local
// communication.
func (s *Sim) Send(from, to int, kind uint8, words []int32) {
	if !s.G.HasEdge(from, to) {
		panic(fmt.Sprintf("distsim: %d→%d is not a link", from, to))
	}
	s.outbox[to] = append(s.outbox[to], Message{From: int32(from), To: int32(to), Kind: kind, Words: words})
	s.Messages++
	s.Words += int64(len(words)) + 2 // +2 for (from, kind) framing words
}

// Broadcast sends the same payload to every neighbor of from.
func (s *Sim) Broadcast(from int, kind uint8, words []int32) {
	for _, v := range s.G.Neighbors(from) {
		s.Send(from, int(v), kind, words)
	}
}

// Step closes the current round and returns the per-node inboxes for
// the next one.
func (s *Sim) Step() [][]Message {
	in := s.outbox
	s.outbox = make([][]Message, s.G.N())
	s.Round++
	return in
}

// nodeState is the per-node protocol state of the reference engine.
type nodeState struct {
	id        int
	neighbors []int32            // learned in the hello round
	known     map[int32][]int32  // source → its neighbor list
	fresh     []int32            // sources learned last round, to forward
	seenTree  map[int32]struct{} // tree roots already forwarded
	freshTree [][]int32          // tree payloads learned last round
	incident  *graph.EdgeSet     // spanner edges this node learned it is part of
}

// RunRemSpanReference executes Algorithm 3 message by message: every
// payload is materialized, enqueued on the synchronous Sim runtime and
// delivered at the next round boundary, with per-node map state exactly
// as a naive implementation would keep it. Besides the run's Result it
// returns, per node, the spanner edges the node learned it belongs to,
// gathered message by message (checkIncidentReference judges them).
func RunRemSpanReference(g *graph.Graph, radius int, algo refAlgo) (*Result, []*graph.EdgeSet) {
	if radius < 1 {
		panic("distsim: flooding radius must be >= 1")
	}
	n := g.N()
	sim := NewSim(g)
	nodes := make([]*nodeState, n)
	for u := 0; u < n; u++ {
		nodes[u] = &nodeState{
			id:       u,
			known:    make(map[int32][]int32),
			seenTree: make(map[int32]struct{}),
			incident: graph.NewEdgeSet(n),
		}
	}

	// Round 1: hello.
	for u := 0; u < n; u++ {
		sim.Broadcast(u, KindHello, []int32{int32(u)})
	}
	inbox := sim.Step()
	for u := 0; u < n; u++ {
		st := nodes[u]
		for _, m := range inbox[u] {
			st.neighbors = append(st.neighbors, m.Words[0])
		}
		// Own list is known and fresh for the first topology round.
		st.known[int32(u)] = st.neighbors
		st.fresh = []int32{int32(u)}
	}

	// Rounds 2..R+1: topology flooding with duplicate suppression.
	for t := 0; t < radius; t++ {
		for u := 0; u < n; u++ {
			st := nodes[u]
			for _, src := range st.fresh {
				list := st.known[src]
				payload := make([]int32, 0, len(list)+2)
				payload = append(payload, src, int32(len(list)))
				payload = append(payload, list...)
				sim.Broadcast(u, KindTopo, payload)
			}
			st.fresh = nil
		}
		inbox = sim.Step()
		for u := 0; u < n; u++ {
			st := nodes[u]
			for _, m := range inbox[u] {
				src := m.Words[0]
				if _, ok := st.known[src]; ok {
					continue
				}
				deg := int(m.Words[1])
				st.known[src] = m.Words[2 : 2+deg]
				st.fresh = append(st.fresh, src)
			}
		}
	}

	// Local computation: build the local view and run the tree
	// algorithm. The local graph contains every edge incident to a
	// known source (edges to fringe nodes are known one-sided).
	trees := make([]*graph.Tree, n)
	sizes := make([]int, n)
	h := graph.NewEdgeSet(n)
	for u := 0; u < n; u++ {
		local := graph.New(n)
		for src, list := range nodes[u].known {
			for _, v := range list {
				local.AddEdge(int(src), int(v))
			}
		}
		t := algo(local, u)
		trees[u] = t
		sizes[u] = t.EdgeCount()
		h.AddTree(t)
	}

	// Rounds R+2..2R+1: tree flooding.
	for u := 0; u < n; u++ {
		t := trees[u]
		payload := make([]int32, 0, 2+2*t.EdgeCount())
		payload = append(payload, int32(u), int32(t.EdgeCount()))
		for _, e := range t.Edges() {
			payload = append(payload, e[0], e[1])
		}
		nodes[u].freshTree = [][]int32{payload}
		nodes[u].seenTree[int32(u)] = struct{}{}
		nodes[u].noteTree(payload)
	}
	for t := 0; t < radius; t++ {
		for u := 0; u < n; u++ {
			st := nodes[u]
			for _, payload := range st.freshTree {
				sim.Broadcast(u, KindTree, payload)
			}
			st.freshTree = nil
		}
		inbox = sim.Step()
		for u := 0; u < n; u++ {
			st := nodes[u]
			for _, m := range inbox[u] {
				root := m.Words[0]
				if _, ok := st.seenTree[root]; ok {
					continue
				}
				st.seenTree[root] = struct{}{}
				st.freshTree = append(st.freshTree, m.Words)
				st.noteTree(m.Words)
			}
		}
	}

	incident := make([]*graph.EdgeSet, n)
	for u := 0; u < n; u++ {
		incident[u] = nodes[u].incident
	}
	return &Result{
		Rounds:    sim.Round,
		Messages:  sim.Messages,
		Words:     sim.Words,
		H:         h,
		TreeEdges: sizes,
	}, incident
}

// noteTree records the spanner edges incident to this node found in a
// flooded tree payload.
func (st *nodeState) noteTree(payload []int32) {
	ne := int(payload[1])
	for i := 0; i < ne; i++ {
		a, b := payload[2+2*i], payload[3+2*i]
		if int(a) == st.id || int(b) == st.id {
			st.incident.Add(int(a), int(b))
		}
	}
}

// checkIncidentReference is the reference half of the protocol's
// correctness condition (CheckIncidentKnowledge): every node learned
// exactly the spanner edges of h incident to it. Returns the first
// offending node (-1 when the condition holds).
func checkIncidentReference(h *graph.EdgeSet, incident []*graph.EdgeSet) int {
	for u, inc := range incident {
		// Everything the node learned must be incident and in H.
		for _, e := range inc.Edges() {
			if int(e[0]) != u && int(e[1]) != u {
				return u
			}
			if !h.Has(int(e[0]), int(e[1])) {
				return u
			}
		}
		// Every incident spanner edge must have been learned.
		for _, e := range h.Edges() {
			if int(e[0]) == u || int(e[1]) == u {
				if !inc.Has(int(e[0]), int(e[1])) {
					return u
				}
			}
		}
	}
	return -1
}
