// Package dynamic maintains a remote-spanner incrementally under
// topology changes. The paper's constructions are local — node u's
// dominating tree depends only on topology within a constant radius R —
// so an edge or vertex change can only invalidate the trees of roots
// within distance R+1 of the change. Rebuilding just those trees yields
// exactly the spanner a full recomputation would produce, at a fraction
// of the work (the incremental-vs-full ablation is benchmarked in
// bench_test.go).
//
// Tree rebuilds run on the same builder code path as the batch
// constructions, via the graph.View read interface: the maintainer's
// one copy of G is a graph.CSRDelta — a CSR snapshot patched in place
// as edges change — so a change costs O(deg) row edits plus |dirty|
// bounded rebuilds, with no O(n+m) re-snapshot on the path. Per-change
// work is therefore a function of the locality radius and the local
// degree, not of the graph, and on large graphs with localized churn
// the maintainer sustains throughput independent of n (measured by
// BenchmarkMaintainerChurn, whose snapshot-per-change baseline arm pays
// the re-snapshot in the benchmark itself).
//
// Batches: Apply applies a whole slice of changes and unions their
// dirty sets; Rebuild then rebuilds each given root exactly once,
// fanning the rebuilds over a sched.Env with one domtree.Scratch per
// worker slot. ApplyBatch is the two in sequence over the dirty
// union. Rebuilding the union against the final graph is exact: a
// root outside every per-change dirty set has, by the locality
// argument, an R-ball whose adjacency never changed at any point of
// the batch, so its stored tree is already the tree a full
// recomputation would build. Callers that defer some roots (the
// distributed simulator's lossy re-advertisement channel) pass Rebuild
// a subset; the deferred roots keep their old trees until rebuilt.
package dynamic

import (
	"fmt"
	"slices"

	"remspan/internal/domtree"
	"remspan/internal/graph"
	"remspan/internal/sched"
)

// TreeBuilder builds the dominating tree for a root on a graph.View
// (e.g. a domtree.KGreedyCSR or domtree.MISCSR closure). The returned
// tree may be owned by the scratch; the maintainer copies the edges out
// before the next call. Batch repairs invoke the builder from several
// goroutines at once (each with its own scratch), so the closure must
// not touch shared mutable state beyond the view and scratch it is
// handed.
type TreeBuilder func(c graph.View, scratch *domtree.Scratch, u int) *graph.Tree

// BuilderSpec couples a production tree builder with the locality
// radius R = r−1+β a Maintainer must be given for it.
type BuilderSpec struct {
	Name   string
	Radius int
	Build  TreeBuilder
}

// Builders returns the canonical table of the four production tree
// builders at their benchmark parameterizations (Exact k=1, Algorithm 5
// k=2, and the two r=3 low-stretch families). The churn benchmarks
// (BenchmarkMaintainerChurn, bench_test.go) and the equivalence tests
// consume this one table so builder and radius can never fall out of
// sync.
func Builders() []BuilderSpec {
	return []BuilderSpec{
		{"kgreedy1", 1, func(c graph.View, s *domtree.Scratch, u int) *graph.Tree {
			return domtree.KGreedyCSR(c, s, u, 1)
		}},
		{"kmis2", 2, func(c graph.View, s *domtree.Scratch, u int) *graph.Tree {
			return domtree.KMISCSR(c, s, u, 2)
		}},
		{"mis3", 3, func(c graph.View, s *domtree.Scratch, u int) *graph.Tree {
			return domtree.MISCSR(c, s, u, 3)
		}},
		{"greedy3", 3, func(c graph.View, s *domtree.Scratch, u int) *graph.Tree {
			return domtree.GreedyCSR(c, s, u, 3, 1)
		}},
	}
}

// Kind discriminates the change types ApplyBatch accepts.
type Kind uint8

// Change kinds.
const (
	// AddEdge inserts edge {U, V}.
	AddEdge Kind = iota
	// RemoveEdge deletes edge {U, V}.
	RemoveEdge
	// FailVertex removes every edge incident to U (V is ignored).
	FailVertex
)

// Change is one topology change of a churn batch.
type Change struct {
	Kind Kind
	U, V int
}

// Maintainer keeps the union-of-trees spanner of a mutable graph.
type Maintainer struct {
	delta  *graph.CSRDelta // G: the patched snapshot the sweeps and builders read
	build  TreeBuilder
	radius int          // locality radius R of the tree construction
	trees  [][][2]int32 // per-root tree edges as (child, parent) pairs

	dirty   *graph.BFSScratch // bounded sweeps + dirty-union accumulator
	touched []int32           // vertices whose neighbor list the last Apply changed
	changed []int32           // roots whose stored tree the last Rebuild changed
	flags   []bool            // per-index changed flags of a Rebuild
	rebuilt int64             // cumulative trees rebuilt (ablation metric)

	env         sched.Env[rebuildWorker] // shard scheduler + per-worker scratch
	roots       []int32                  // per-run roots the shard body reads
	rebuildBody func(w, lo, hi int)      // prebound shard body
}

// rebuildWorker is one worker slot of the rebuild fan-out: a domtree
// scratch sized to the graph once and reused by every later Rebuild.
type rebuildWorker struct {
	scratch *domtree.Scratch
}

// New computes the initial spanner over a CSR snapshot of g. radius is
// the construction's locality radius R = r−1+β (1 for Algorithm 4, 2 for
// Algorithm 5 with β=1, r for Algorithm 2). It panics if the builder
// emits a tree deeper than radius (see Rebuild).
func New(g *graph.Graph, radius int, build TreeBuilder) *Maintainer {
	if radius < 1 {
		panic("dynamic: radius must be >= 1")
	}
	m := &Maintainer{
		delta:  graph.NewCSRDelta(graph.NewCSR(g)),
		build:  build,
		radius: radius,
		trees:  make([][][2]int32, g.N()),
		dirty:  graph.NewBFSScratch(g.N()),
	}
	m.RebuildAll()
	return m
}

// storeTree replaces root u's stored edge list with a compact copy of
// t's edges, overwriting the previous copy in place, and reports
// whether the edges differ from it. Each edge is compared against the
// old slot it is about to overwrite, so no second buffer is needed.
//
// A tree deeper than the locality radius panics: its members would lie
// outside the R-ball the dirty-root rule and the distributed
// simulator's tree flooding both assume.
//
//remspan:hotpath
func (m *Maintainer) storeTree(u int, t *graph.Tree) bool {
	old := m.trees[u]
	buf := old[:0]
	changed := false
	for _, v := range t.Nodes() {
		if t.Depth(int(v)) > m.radius {
			panic(fmt.Sprintf("dynamic: tree of root %d deeper than locality radius %d", u, m.radius))
		}
		if p := t.Parent(int(v)); p >= 0 {
			e := [2]int32{v, int32(p)}
			if len(buf) >= len(old) || old[len(buf)] != e {
				changed = true
			}
			buf = append(buf, e)
		}
	}
	m.trees[u] = buf
	return changed || len(buf) != len(old)
}

// Graph returns a caller-owned snapshot of the maintained graph, built
// in O(n + m) on every call: for readers off the change path (full
// resyncs, checks). View serves the rest.
func (m *Maintainer) Graph() *graph.Graph { return graph.FromView(m.delta) }

// Spanner returns the current union-of-trees spanner.
func (m *Maintainer) Spanner() *graph.EdgeSet {
	return graph.NewEdgeSet(m.delta.N(), m.trees...)
}

// TreeOf returns root u's stored dominating-tree edges as (child,
// parent) pairs. The slice is shared with the maintainer and valid
// until the next rebuild — it is the per-root ground truth the
// distributed simulator accounts its traffic over.
func (m *Maintainer) TreeOf(u int) [][2]int32 { return m.trees[u] }

// Trees returns every root's stored tree edges, indexed by root, as
// TreeOf does one: shared with the maintainer, read-only, and valid
// until the next rebuild. The spanner is their union, which the
// routing store derives from them after every batch.
func (m *Maintainer) Trees() [][][2]int32 { return m.trees }

// View returns the maintained graph itself, the CSRDelta the sweeps
// and builders read. Shared state: read it between applied changes,
// never across them; change it only through Apply or ApplyBatch.
func (m *Maintainer) View() *graph.CSRDelta { return m.delta }

// DirtyRoots returns the sorted dirty-root union of the most recent
// Apply or ApplyBatch — the roots whose trees the change can have
// invalidated, and exactly the roots ApplyBatch rebuilds. The slice is
// scratch-owned and valid until the next applied batch. Downstream incremental consumers (the routing.Store's
// dirty-owner table rebuild) key their own repairs off this set.
func (m *Maintainer) DirtyRoots() []int32 { return m.dirty.UnionSorted() }

// Touched returns the sorted vertices whose neighbor list the most
// recent Apply or ApplyBatch changed: both endpoints of every
// effective edge change, and a failed vertex together with every
// former neighbor. Empty when the batch had no effect. The slice is
// maintainer-owned and valid until the next applied batch.
func (m *Maintainer) Touched() []int32 { return m.touched }

// TreesRebuilt returns the cumulative number of tree constructions
// (including the initial build). The dirty-root set is accumulated in
// sorted order, so the count trace — and every stored tree — is
// reproducible run to run; only the execution interleaving of the
// parallel batch repair varies (roots are independent, so it cannot
// affect results).
func (m *Maintainer) TreesRebuilt() int64 { return m.rebuilt }

// applyChange patches one topology change into the delta, accumulating
// every root whose radius-R tree input the change touches into the
// dirty union and every vertex whose neighbor list it changes into
// touched. Reports whether the change had any effect. Edge changes
// sweep B(u,R) ∪ B(v,R) after the patch: the union is the same with or
// without {u, v}, since a shortest path to u through the edge ends with
// it and its prefix reaches v within R−1 (pinned by
// TestEdgeDirtySweepIgnoresPatchOrder). A vertex failure sweeps first:
// x is isolated afterwards.
//
//remspan:hotpath
func (m *Maintainer) applyChange(ch Change) bool {
	g, dirty, radius := m.delta, m.dirty, m.radius
	switch ch.Kind {
	case AddEdge:
		if !g.AddEdge(ch.U, ch.V) {
			return false
		}
	case RemoveEdge:
		if !g.RemoveEdge(ch.U, ch.V) {
			return false
		}
	case FailVertex:
		x := ch.U
		g.CheckVertex(x)
		nbrs := g.Neighbors(x)
		if len(nbrs) == 0 {
			return false
		}
		// One radius-(R+1) sweep from x replaces the per-incident-edge
		// union ∪_{v∈N(x)} (B(x,R) ∪ B(v,R)): every v is adjacent to x,
		// so B(v,R) ⊆ B(x,R+1); conversely any w at distance R+1 from x
		// reaches x through some neighbor v with d(w,v) = R, so the two
		// sets are equal (pinned by TestFailVertexDirtySweepEqualsUnion).
		dirty.UnionBounded(g, x, radius+1)
		m.touched = append(m.touched, int32(x))
		for len(nbrs) > 0 {
			v := int(nbrs[len(nbrs)-1])
			m.touched = append(m.touched, int32(v))
			g.RemoveEdge(x, v)
			nbrs = g.Neighbors(x)
		}
		return true
	default:
		panic("dynamic: unknown change kind")
	}
	dirty.UnionBounded(g, ch.U, radius)
	dirty.UnionBounded(g, ch.V, radius)
	m.touched = append(m.touched, int32(ch.U), int32(ch.V))
	return true
}

// Apply patches the changes in order into the graph without
// rebuilding any tree, and returns the number that had
// an effect. Afterwards DirtyRoots holds the union of their dirty sets
// and Touched the vertices whose neighbor lists changed; the caller
// rebuilds (a subset of) the dirty roots with Rebuild.
//
//remspan:hotpath
func (m *Maintainer) Apply(changes []Change) int {
	m.dirty.ResetUnion()
	m.touched = m.touched[:0]
	applied := 0
	for _, ch := range changes {
		if m.applyChange(ch) {
			applied++
		}
	}
	slices.Sort(m.touched)
	m.touched = slices.Compact(m.touched)
	return applied
}

// rebuildShard rebuilds the roots indexed [lo, hi) on worker w's
// pooled scratch. Each root writes only its own trees slot and its own
// changed flag, so the stealing schedule cannot affect the results.
//
//remspan:hotpath
func (m *Maintainer) rebuildShard(w, lo, hi int) {
	scratch := m.env.Slot(w).scratch
	for i := lo; i < hi; i++ {
		u := int(m.roots[i])
		m.flags[i] = m.storeTree(u, m.build(m.delta, scratch, u))
	}
}

// Rebuild rebuilds exactly the given roots (distinct) against the
// current graph and returns, in the given order, those whose stored
// tree changed. The rebuilds fan out over the shard scheduler, each a
// heavy item (a bounded BFS); below 32 roots the same shard body runs
// at width 1, a plain loop on the caller. Per-root results are
// independent and land in per-root slots, so the stored trees are
// identical at every width. The returned slice is maintainer-owned and
// valid until the next Rebuild. It panics if the builder emits a tree
// deeper than the locality radius.
//
//remspan:hotpath
func (m *Maintainer) Rebuild(roots []int32) []int32 {
	const parallelThreshold = 32
	width := sched.Workers(len(roots))
	if len(roots) < parallelThreshold {
		width = 1
	}
	for _, rw := range m.env.Slots(width) {
		if rw.scratch == nil {
			rw.scratch = domtree.NewScratch(m.delta.N()) //remspan:coldpath worker scratch warm-up, reused across batches
		}
	}
	if m.rebuildBody == nil {
		m.rebuildBody = m.rebuildShard //remspan:coldpath one-time method-value binding, cached across batches
	}
	if cap(m.flags) < len(roots) {
		m.flags = make([]bool, len(roots)) //remspan:coldpath flag buffer grows to the largest root set, then is reused
	}
	m.flags = m.flags[:len(roots)]
	m.roots = roots
	m.env.RunHeavy(len(roots), width, m.rebuildBody)
	m.roots = nil
	m.changed = m.changed[:0]
	for i, u := range roots {
		if m.flags[i] {
			m.changed = append(m.changed, u)
		}
	}
	m.rebuilt += int64(len(roots))
	return m.changed
}

// RebuildAll rebuilds every root's tree against the current graph, on
// the same sharded path as Rebuild.
func (m *Maintainer) RebuildAll() {
	roots := make([]int32, m.delta.N())
	for u := range roots {
		roots[u] = int32(u)
	}
	m.Rebuild(roots)
}

// ApplyBatch applies the changes in order, unions their dirty sets, and
// rebuilds each dirty root exactly once against the final graph, fanned
// out across a worker pool: Apply followed by Rebuild(DirtyRoots()).
// It returns the number of changes that had an effect. For large or
// overlapping batches this does strictly less work than applying the
// changes one by one (shared dirty balls rebuild once instead of once
// per change).
//
//remspan:hotpath
func (m *Maintainer) ApplyBatch(changes []Change) int {
	applied := m.Apply(changes)
	m.Rebuild(m.DirtyRoots())
	return applied
}
