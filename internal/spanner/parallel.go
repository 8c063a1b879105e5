package spanner

import (
	"slices"

	"remspan/internal/domtree"
	"remspan/internal/graph"
	"remspan/internal/sched"
)

// CSRBuilder builds the dominating tree for one root on a graph.View
// (an immutable CSR snapshot here; the incremental maintainer passes a
// patched CSRDelta to the same builders), using — and owning until the
// next call — the scratch's pooled tree. All production constructions
// are unions of these.
type CSRBuilder func(c graph.View, s *domtree.Scratch, u int) *graph.Tree

// buildWorker is one worker slot of the construction fan-out, retained
// across builds: the domtree scratch is reused for any graph up to its
// size, and the local edge-mark bitset for any snapshot up to its slot
// count.
type buildWorker struct {
	n       int
	scratch *domtree.Scratch
	local   graph.EdgeMarks
}

// buildEnv is the reusable environment of the construction fan-out:
// the worker slots, the relabeled snapshot and the per-run parameters
// the prebound shard body reads. One env serves the package; a
// concurrent build that finds it busy runs on a transient env instead
// (sched.Shared).
type buildEnv struct {
	sched.Env[buildWorker]

	// The run's locality-relabeled snapshot, its storage kept across
	// runs: order lists the caller's vertices in BFS order (new id →
	// original id, which is also every vertex's tie-break label), rank
	// is its inverse, and snap is the caller's snapshot permuted by
	// order with every row in its original neighbour order.
	order, rank []int32
	snap        graph.CSR

	// Per-run job.
	builder CSRBuilder
	sizes   []int

	body func(w, lo, hi int) // prebound shard body
}

var sharedBuildEnv sched.Shared[buildEnv]

// shard builds the trees of relabeled roots [lo, hi) on worker w's
// pooled scratch, accumulating edges into the worker-local marks.
// Per-root results land in per-item slots (sizes, at the original id)
// or commutative accumulators (the marks union), so the stealing
// schedule cannot affect the result.
//
//remspan:hotpath
func (e *buildEnv) shard(w, lo, hi int) {
	bw := e.Slot(w)
	for u := lo; u < hi; u++ {
		t := e.builder(&e.snap, bw.scratch, u)
		e.sizes[e.order[u]] = t.EdgeCount()
		bw.local.AddTree(t)
	}
}

// unionParallelCSR fans the per-root tree builds over the shard
// scheduler with sched.Workers workers and merges their edges into
// marks (over c, labelled by id). sizes[u] receives each root's tree
// edge count.
//
// The builders run on a copy of c relabeled in BFS order (each
// component from its smallest id), so the roots of one shard, and
// every neighbour's row, stamp and counter a root's ball probes, sit
// on nearby cache lines instead of n-wide random ones. The copy's
// rows keep c's neighbour order and each scratch breaks ties by the
// original id (domtree.Scratch.SetLabels), so every tree is c's tree
// relabeled, and the union is bit-identical to building on c. The
// worker-local marks live on the copy; they are ORed into worker 0's
// in ascending worker order (set union commutes, so the merge order is
// a convention, not load-bearing) and mapped back into marks in one
// pass. The order, its inverse, the copy, the scratches and the marks
// keep their storage across runs, so a warm env run over a snapshot no
// larger than an earlier one performs no heap allocations
// (TestUnionParallelZeroAlloc).
func unionParallelCSR(c *graph.CSR, builder CSRBuilder, marks *graph.EdgeMarks, sizes []int) {
	e := sharedBuildEnv.Acquire()
	defer sharedBuildEnv.Release(e)
	n := c.N()
	e.order = slices.Grow(e.order[:0], n)[:n]
	e.rank = slices.Grow(e.rank[:0], n)[:n]
	c.BFSOrder(e.order, e.rank)
	c.PermuteInto(&e.snap, e.order, e.rank)
	width := sched.Workers(n)
	slots := e.Slots(width)
	for _, bw := range slots {
		if bw.scratch == nil || bw.n < n {
			bw.scratch = domtree.NewScratch(n)
			bw.n = n
		}
		bw.scratch.SetLabels(e.order, e.rank)
		bw.local.Bind(&e.snap, e.order)
	}
	if e.body == nil {
		e.body = e.shard //remspan:coldpath one-time method-value binding, cached across runs
	}
	e.builder, e.sizes = builder, sizes
	e.Run(n, width, e.body)
	e.builder, e.sizes = nil, nil
	for _, bw := range slots[1:] {
		slots[0].local.Union(&bw.local)
	}
	marks.UnionPermuted(&slots[0].local)
}

// buildParallel snapshots g once and constructs one dominating tree
// per root across the shared shard scheduler (roots are independent —
// the paper's algorithms need no synchronization between node
// decisions), merging the edges into a single set. Each worker slot
// owns one pooled domtree.Scratch and local accumulator, so the
// per-root hot loop allocates nothing; at one worker the scheduler
// runs the same shard body as a plain loop on the caller. The trees
// are built on a locality-relabeled copy of the snapshot
// (unionParallelCSR). The output is bit-identical at every GOMAXPROCS
// (TestBuildParallelDeterminism) and to the serial union of the
// map-based reference builders.
func buildParallel(g *graph.Graph, builder CSRBuilder) *Result {
	c := graph.NewCSR(g)
	marks := graph.NewEdgeMarks(c)
	sizes := make([]int, c.N())
	unionParallelCSR(c, builder, marks, sizes)
	return &Result{H: marks.EdgeSet(), TreeEdges: sizes}
}
