package distsim

import (
	"slices"

	"remspan/internal/dynamic"
	"remspan/internal/graph"
)

// TreeBuilder builds the dominating tree for a root on a graph.View —
// the production domtree *CSR builders. It is dynamic.TreeBuilder, so
// dynamic.Builders() parameterizes both pipelines. The engine's
// maintainer runs it on the global patched snapshot; the locality
// contract makes that tree equal to the node-local computation of
// Algorithm 3 on the root's flooded ball (the locality oracle of
// FuzzDistsimEquivalence).
type TreeBuilder = dynamic.TreeBuilder

// Result summarizes a RemSpan run. It shares the engine's maintainer
// — its tree storage and topology view — rather than copying them, so
// it, in particular CheckIncidentKnowledge on it, is valid only until
// the engine's next Run or Reflood (H and TreeEdges are snapshots and
// stay valid). RunRemSpan results are never invalidated: the helper's
// engine is not retained.
type Result struct {
	Rounds    int            // total synchronous rounds: 2(r−1+β)+1
	Messages  int64          // point-to-point messages sent
	Words     int64          // total payload words sent
	H         *graph.EdgeSet // the computed remote-spanner (union of trees)
	TreeEdges []int          // per-root tree sizes

	m *dynamic.Maintainer // for incident-knowledge verification
}

// Engine is the RemSpan traffic accountant over one
// dynamic.Maintainer. The maintainer owns the topology (mutable mirror
// plus patched CSRDelta), the per-root trees and the dirty-root
// repair; the engine turns what the maintainer did into protocol
// traffic. A fresh engine runs the full protocol (Run); a live network
// then feeds it topology diffs (Reflood) and only the dirty roots
// recompute and re-advertise.
//
// Traffic is not counted by materializing messages: synchronous
// flooding with duplicate suppression is fully determined by the ball
// structure — node u forwards the neighbor list (and later the tree) of
// every source within distance R−1 exactly once — so the tallies are
// computed from bounded BFS sweeps. The tests' message-level reference
// engine pins the equality.
type Engine struct {
	clone  *graph.Graph // NewEngine's copy of the input, until it seeds m
	radius int
	build  TreeBuilder
	m      *dynamic.Maintainer // created, with every tree, by the first Run or Reflood
	bfs    *graph.BFSScratch   // flood-cost sweeps

	// Lossy re-flood state: roots whose re-advertisement was dropped,
	// retransmitted (rebuilt against the then-current topology) next
	// tick. Buffers reused across ticks.
	pend, pendNext []int32
	rootsBuf       []int32
}

// NewEngine returns an engine over a clone of g. radius is the
// protocol's flooding radius R = r−1+β. No tree is built until the
// first Run or Reflood.
func NewEngine(g *graph.Graph, radius int, build TreeBuilder) *Engine {
	if radius < 1 {
		panic("distsim: flooding radius must be >= 1")
	}
	return &Engine{clone: g.Clone(), radius: radius, build: build}
}

// start creates the maintainer from the engine's clone — building
// every root's tree — unless it exists, and reports whether it did.
func (e *Engine) start() bool {
	if e.m != nil {
		return false
	}
	e.m = dynamic.New(e.clone, e.radius, e.build)
	e.clone = nil
	e.bfs = graph.NewBFSScratch(e.m.Graph().N())
	return true
}

// Graph returns the engine's current topology (do not mutate directly —
// feed changes through Reflood).
func (e *Engine) Graph() *graph.Graph {
	if e.m == nil {
		return e.clone
	}
	return e.m.Graph()
}

// Radius returns the flooding radius R.
func (e *Engine) Radius() int { return e.radius }

// TreeOf returns root u's current tree as (child, parent) pairs
// (shared slice, valid until the next Run/Reflood; nil before the
// first).
func (e *Engine) TreeOf(u int) [][2]int32 {
	if e.m == nil {
		return nil
	}
	return e.m.TreeOf(u)
}

// Spanner materializes the current union-of-trees spanner (empty before
// the first Run/Reflood).
func (e *Engine) Spanner() *graph.EdgeSet {
	if e.m == nil {
		return graph.NewEdgeSet(e.clone.N())
	}
	return e.m.Spanner()
}

// Run executes the full protocol on the current topology: every root
// recomputes its tree from its flooded local view, the spanner is the
// union, and the traffic of the hello round, R topology-flooding rounds
// and R tree-flooding rounds is tallied. Rounds = 2R+1 independent of
// the graph — the paper's headline claim.
//
// The tally is summed per source rather than per forwarding node: node
// u forwards the list and tree of x exactly when x ∈ B(u, R−1), which
// holds exactly when u ∈ B(x, R−1), so each source x contributes its
// hello plus one flood of its list (deg(x)+4 words) and tree
// (2|T_x|+4 words), two messages per forwarding link.
func (e *Engine) Run() *Result {
	if !e.start() {
		e.m.RebuildAll()
	}
	n := e.m.Graph().N()
	res := &Result{
		Rounds:    2*e.radius + 1,
		H:         e.m.Spanner(),
		TreeEdges: make([]int, n),
		m:         e.m,
	}
	view := e.m.View()
	for x := 0; x < n; x++ {
		degX := int64(view.Degree(x))
		treeX := len(e.m.TreeOf(x))
		res.TreeEdges[x] = treeX
		fm, fw := e.floodCost(x, (degX+4)+(2*int64(treeX)+4))
		res.Messages += degX + 2*fm // hello broadcast, then list and tree
		res.Words += 3*degX + fw    // hello: [id] + 2 framing words
	}
	return res
}

// RunRemSpan executes Algorithm 3 on every node of g simultaneously
// with the fast engine:
//
//	round 1:            hello — send own id on every link
//	rounds 2..R+1:      flood neighbor lists to radius R = r−1+β
//	(local)             compute the dominating tree from the local view
//	rounds R+2..2R+1:   flood the tree to radius R
//
// The returned spanner is the union of all trees; it equals the
// centralized construction because the tree builders are local, and
// the traffic tallies equal a message-by-message execution — both
// pinned by tests against the message-level reference engine.
func RunRemSpan(g *graph.Graph, radius int, build TreeBuilder) *Result {
	return NewEngine(g, radius, build).Run()
}

// CheckIncidentKnowledge verifies the protocol's correctness condition:
// every node ends up knowing exactly the spanner edges incident to it,
// so it can advertise/route over them. The learned set is reconstructed
// from the flood structure: node u hears the trees of every root within
// distance R. Returns the first offending node (-1 when the condition
// holds).
func CheckIncidentKnowledge(res *Result) int {
	hg := res.H.Graph()
	n := hg.N()
	bfs := graph.NewBFSScratch(n)
	var heard []int32
	for u := 0; u < n; u++ {
		_, _, roots := bfs.BoundedView(res.m.View(), u, res.m.Radius())
		heard = heard[:0]
		for _, w := range roots {
			for _, e := range res.m.TreeOf(int(w)) {
				switch {
				case int(e[0]) == u:
					heard = append(heard, e[1])
				case int(e[1]) == u:
					heard = append(heard, e[0])
				}
			}
		}
		slices.Sort(heard)
		heard = slices.Compact(heard)
		if !slices.Equal(heard, hg.Neighbors(u)) {
			return u
		}
	}
	return -1
}

// FullLinkState returns the message/word cost of classic full
// link-state flooding (every node floods its neighbor list to the
// entire network, OSPF-style) for comparison: every node retransmits
// every list once.
func FullLinkState(v graph.View) (messages, words int64) {
	n := v.N()
	twoM := int64(2 * v.M())
	// Hello round.
	messages = twoM
	words = twoM * 3
	// Each of the n lists is retransmitted by every node on every link.
	messages += int64(n) * twoM
	for src := 0; src < n; src++ {
		words += twoM * int64(v.Degree(src)+4)
	}
	return messages, words
}

// TickStats reports one live re-advertisement tick.
type TickStats struct {
	Applied    int   // topology changes that had an effect
	DirtyRoots int   // roots due a rebuild: dirty balls + lost-re-flood retransmissions
	Refloods   int   // due roots whose tree actually changed and re-flooded
	Lost       int   // re-advertisements dropped this tick (retransmitted next tick)
	Messages   int64 // incremental RemSpan re-advertisement messages
	Words      int64 // incremental RemSpan re-advertisement words
	FullMsgs   int64 // full link-state re-flood of the same changes
	FullWords  int64
}

// Reflood applies a batch of topology changes and simulates the
// incremental re-advertisement a live RemSpan deployment performs:
// vertices whose adjacency changed (the maintainer's Touched set)
// re-flood their neighbor lists to radius R, and the dirty roots —
// accumulated by the maintainer's exact radius-R (R+1 for vertex
// failures) dirty-ball rule — recompute their trees and re-flood only
// the trees that changed. Non-dirty roots keep their trees by the
// locality argument, so after every tick the engine's spanner is
// bit-identical to a full recomputation (pinned against
// dynamic.Maintainer ground truth in tests).
//
// The FullMsgs/FullWords fields carry the comparison arm: an OSPF-style
// protocol re-floods each changed vertex's link-state advertisement
// through the entire network.
func (e *Engine) Reflood(changes []dynamic.Change) TickStats {
	return e.RefloodLossy(changes, nil)
}

// RefloodLossy is Reflood under an unreliable re-advertisement
// channel: drop (seeded by the caller, so runs replay exactly) is
// consulted once per due root, and a dropped root's re-flood is lost —
// its tree is not recomputed or re-advertised this tick, the rest of
// the network keeps its previous tree, and the root retransmits next
// tick, rebuilding against the topology current then (periodic
// re-advertisement, the standard link-state recovery). Lost roots are
// counted in TickStats.Lost and merged into the next tick's due set,
// so once the loss stops the spanner reconverges to the maintainer
// ground truth within one tick (pinned by
// TestRefloodLossyConvergence). A dropped root keeps its old tree in
// the maintainer until it retransmits, so the engine's spanner stays
// the network's view of it. A nil drop is exactly Reflood.
func (e *Engine) RefloodLossy(changes []dynamic.Change, drop func(root int32) bool) TickStats {
	e.start()
	var st TickStats
	st.Applied = e.m.Apply(changes)
	if st.Applied == 0 && len(e.pend) == 0 {
		return st
	}

	roots := e.m.DirtyRoots()
	if len(e.pend) > 0 || drop != nil {
		// Work on an engine-owned copy: merge in last tick's lost
		// roots, then carve out this tick's losses. The scratch-owned
		// union slice is never mutated.
		merged := append(e.rootsBuf[:0], roots...)
		merged = append(merged, e.pend...)
		slices.Sort(merged)
		merged = slices.Compact(merged)
		e.rootsBuf = merged
		e.pendNext = e.pendNext[:0]
		kept := merged[:0]
		for _, u := range merged {
			if drop != nil && drop(u) {
				e.pendNext = append(e.pendNext, u)
				continue
			}
			kept = append(kept, u)
		}
		st.DirtyRoots = len(kept) + len(e.pendNext)
		st.Lost = len(e.pendNext)
		e.pend, e.pendNext = e.pendNext, e.pend[:0]
		roots = kept
	} else {
		st.DirtyRoots = len(roots)
	}
	refloods := e.m.Rebuild(roots)
	st.Refloods = len(refloods)

	// Traffic. Incremental RemSpan: changed vertices hello + re-flood
	// their lists to radius R; changed trees re-flood to radius R. Full
	// link-state: every changed vertex's LSA re-floods network-wide.
	view := e.m.View()
	twoM := int64(2 * view.M())
	for _, x := range e.m.Touched() {
		degX := int64(view.Degree(int(x)))
		st.Messages += degX // hello broadcast on the new links
		st.Words += 3 * degX
		fm, fw := e.floodCost(int(x), degX+4)
		st.Messages += fm
		st.Words += fw
		st.FullMsgs += degX + twoM
		st.FullWords += 3*degX + twoM*(degX+4)
	}
	for _, u := range refloods {
		fm, fw := e.floodCost(int(u), 2*int64(len(e.m.TreeOf(int(u))))+4)
		st.Messages += fm
		st.Words += fw
	}
	return st
}

// floodCost returns the cost of flooding one payload of the given word
// count (framing included) from src to radius R: every node within
// distance R−1 retransmits it once on all its links.
//
//remspan:hotpath
func (e *Engine) floodCost(src int, payload int64) (msgs, words int64) {
	view := e.m.View()
	if e.radius == 1 {
		d := int64(view.Degree(src))
		return d, d * payload
	}
	_, _, visited := e.bfs.BoundedView(view, src, e.radius-1)
	for _, y := range visited {
		d := int64(view.Degree(int(y)))
		msgs += d
		words += d * payload
	}
	return msgs, words
}
