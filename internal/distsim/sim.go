// Package distsim simulates the paper's distributed setting: a
// synchronous message-passing network (LOCAL model) in which every node
// runs Algorithm 3 RemSpan(r, β) — hello round, neighbor-list flooding
// to radius R = r−1+β, local dominating-tree computation, and tree
// flooding. The simulator counts rounds, messages and payload words, so
// experiments can demonstrate the "constant time for any input graph"
// claim and measure advertisement cost against full link-state
// flooding.
//
// Engine / RunRemSpan run the protocol (DESIGN.md §3d) as a traffic
// accountant over one dynamic.Maintainer. The maintainer owns the
// topology, builds every root's tree with the production domtree
// builders on its global patched snapshot (equal to the node-local
// build on the root's flooded ball by the locality contract;
// graph.BallScratch extracts that ball only as the test oracle), and
// repairs dirty roots after changes. The engine tallies traffic from
// the ball structure — synchronous flooding with duplicate suppression
// forwards each item exactly once per node within distance R−1, so the
// counts are exact without materializing a single message. It also
// runs live: Reflood applies topology diffs and re-advertises only
// dirty roots (LiveRun drives it from the mobility model). The tests
// keep a message-level reference engine — per-node map state, real
// payload slices, a synchronous round runtime — and pin the engine
// against it on rounds, messages, words and the spanner itself.
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
