// Package distsim simulates the paper's distributed setting: a
// synchronous message-passing network (LOCAL model) in which every node
// runs Algorithm 3 RemSpan(r, β) — hello round, neighbor-list flooding
// to radius R = r−1+β, local dominating-tree computation, and tree
// flooding. The simulator counts rounds, messages and payload words, so
// experiments can demonstrate the "constant time for any input graph"
// claim and measure advertisement cost against full link-state
// flooding.
//
// Two engines implement the protocol (DESIGN.md §3d):
//
//   - Engine / RunRemSpan: the production engine, a traffic
//     accountant over one dynamic.Maintainer. The maintainer owns the
//     topology, builds every root's tree with the production domtree
//     *CSR builders on its global patched snapshot (equal to the
//     node-local build on the root's flooded ball by the locality
//     contract; graph.BallScratch extracts that ball only as the test
//     oracle), and repairs dirty roots after changes. The engine
//     tallies traffic from the ball structure — synchronous flooding
//     with duplicate suppression forwards each item exactly once per
//     node within distance R−1, so the counts are exact without
//     materializing a single message. It also runs live: Reflood
//     applies topology diffs and re-advertises only dirty roots
//     (LiveRun drives it from the mobility model).
//   - RunRemSpanReference: the message-level reference — per-node map
//     state, real payload slices, the Sim round runtime. Differential
//     tests pin the engines against each other on rounds, messages,
//     words and the spanner itself.
//
// RunRemSpanAsync additionally executes the flooding with random
// per-link delays to demonstrate timing invariance.
//
// Differential pins demand bit-identical replays from a seed, so
// library code must stay off wall clocks, unseeded randomness, and
// map-ordered output.
//
//remspan:deterministic
package distsim

import (
	"fmt"

	"remspan/internal/graph"
)

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
