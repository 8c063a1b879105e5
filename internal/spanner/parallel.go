package spanner

import (
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
// size, and the local edge-mark accumulator is reused whenever the
// snapshot is the same one as the previous run (the steady-state
// repeated-build case PinAllocsAt covers) and rebuilt otherwise.
type buildWorker struct {
	n       int
	scratch *domtree.Scratch
	csr     *graph.CSR
	local   *graph.EdgeMarks
}

// buildEnv is the reusable environment of the construction fan-out:
// the worker slots and the per-run parameters the prebound shard body
// reads. One env serves the package; a concurrent build that finds it
// busy runs on a transient env instead (sched.Shared).
type buildEnv struct {
	sched.Env[buildWorker]

	// Per-run job.
	c       *graph.CSR
	builder CSRBuilder
	sizes   []int

	body func(w, lo, hi int) // prebound shard body
}

var sharedBuildEnv sched.Shared[buildEnv]

// shard builds the trees of roots [lo, hi) on worker w's pooled
// scratch, accumulating edges into the worker-local marks. Per-root
// results land in per-item slots (sizes) or commutative accumulators
// (the marks union), so the stealing schedule cannot affect the
// result.
//
//remspan:hotpath
func (e *buildEnv) shard(w, lo, hi int) {
	bw := e.Slot(w)
	for u := lo; u < hi; u++ {
		t := e.builder(e.c, bw.scratch, u)
		e.sizes[u] = t.EdgeCount()
		bw.local.AddTree(t)
	}
}

// unionParallelCSR fans the per-root tree builds over the shard
// scheduler with sched.Workers workers and merges the worker-local
// edge marks into marks in ascending worker order (set union commutes,
// so the merge order is a determinism convention, not a load-bearing
// one). sizes[u] receives each root's tree edge count. Worker slots
// are readied first: scratches are grown to the snapshot's size once
// and then reused; local marks are reset in place when the snapshot is
// unchanged and rebound otherwise. A warm env run over an unchanged
// snapshot performs no steady-state heap allocations
// (TestUnionParallelZeroAlloc).
func unionParallelCSR(c *graph.CSR, builder CSRBuilder, marks *graph.EdgeMarks, sizes []int) {
	e := sharedBuildEnv.Acquire()
	defer sharedBuildEnv.Release(e)
	n := c.N()
	width := sched.Workers(n)
	slots := e.Slots(width)
	for _, bw := range slots {
		if bw.scratch == nil || bw.n < n {
			bw.scratch = domtree.NewScratch(n)
			bw.n = n
		}
		if bw.csr == c {
			bw.local.Reset()
		} else {
			bw.local = graph.NewEdgeMarks(c)
			bw.csr = c
		}
	}
	if e.body == nil {
		e.body = e.shard //remspan:coldpath one-time method-value binding, cached across runs
	}
	e.c, e.builder, e.sizes = c, builder, sizes
	e.Run(n, width, e.body)
	e.c, e.builder, e.sizes = nil, nil, nil
	for _, bw := range slots {
		marks.Union(bw.local)
	}
}

// buildParallel snapshots g once and constructs one dominating tree
// per root across the shared shard scheduler (roots are independent —
// the paper's algorithms need no synchronization between node
// decisions), merging the edges into a single set. Each worker slot
// owns one pooled domtree.Scratch and local accumulator, so the
// per-root hot loop allocates nothing; at one worker the scheduler
// runs the same shard body as a plain loop on the caller. The output
// is bit-identical at every GOMAXPROCS (TestBuildParallelDeterminism)
// and to the serial union of the map-based reference builders.
func buildParallel(g *graph.Graph, builder CSRBuilder) *Result {
	c := graph.NewCSR(g)
	marks := graph.NewEdgeMarks(c)
	sizes := make([]int, c.N())
	unionParallelCSR(c, builder, marks, sizes)
	return &Result{H: marks.EdgeSet(), TreeEdges: sizes}
}
