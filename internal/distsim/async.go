package distsim

import (
	"container/heap"
	"math/rand"

	"remspan/internal/domtree"
	"remspan/internal/graph"
)

// Asynchronous execution of the RemSpan protocol. The paper stresses
// that "no synchronisation between node decisions is necessary": each
// node's dominating tree depends only on the (monotone) topology
// knowledge it eventually gathers, so the computed spanner must be
// independent of message timing. RunRemSpanAsync delivers every message
// with a random delay and recomputes a node's tree whenever its
// knowledge grows; the final union must equal the synchronous (and
// centralized) result — asserted in tests.

// asyncEvent is a message in flight.
type asyncEvent struct {
	at      float64 // delivery time
	seq     int64   // tie-break for determinism
	to      int32
	src     int32 // whose neighbor list this carries
	list    []int32
	hopsTTL int
}

type eventQueue []asyncEvent

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(asyncEvent)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// AsyncResult reports an asynchronous run.
type AsyncResult struct {
	Messages   int64
	Deliveries int64
	Recomputes int64          // tree recomputations triggered by late knowledge
	H          *graph.EdgeSet // final spanner
}

// RunRemSpanAsync floods neighbor lists with i.i.d. random delays in
// [1, 2) per link (seeded rng), with TTL radius hops. Each node
// recomputes its dominating tree every time new knowledge arrives;
// only the final trees are collected — build runs on each node's
// local view, materialized as a graph of the lists it heard. Timing
// must not change the result.
func RunRemSpanAsync(g *graph.Graph, radius int, build TreeBuilder, rng *rand.Rand) *AsyncResult {
	if radius < 1 {
		panic("distsim: flooding radius must be >= 1")
	}
	n := g.N()
	known := make([]map[int32][]int32, n)
	for u := 0; u < n; u++ {
		known[u] = make(map[int32][]int32)
		list := append([]int32(nil), g.Neighbors(u)...)
		known[u][int32(u)] = list
	}

	res := &AsyncResult{}
	var q eventQueue
	var seq int64
	send := func(at float64, from, to int, src int32, list []int32, ttl int) {
		seq++
		res.Messages++
		heap.Push(&q, asyncEvent{
			at: at + 1 + rng.Float64(), seq: seq,
			to: int32(to), src: src, list: list, hopsTTL: ttl,
		})
	}
	// Initial emission: every node floods its own list with TTL radius.
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(u) {
			send(0, u, int(v), int32(u), known[u][int32(u)], radius-1)
		}
	}
	dirty := make([]bool, n)
	for q.Len() > 0 {
		ev := heap.Pop(&q).(asyncEvent)
		res.Deliveries++
		u := int(ev.to)
		if _, ok := known[u][ev.src]; ok {
			continue // duplicate
		}
		known[u][ev.src] = ev.list
		dirty[u] = true
		if ev.hopsTTL > 0 {
			for _, v := range g.Neighbors(u) {
				send(ev.at, u, int(v), ev.src, ev.list, ev.hopsTTL-1)
			}
		}
	}
	// Compute final trees (recomputation count estimates the wasted
	// work an eager implementation would do: one recompute per
	// knowledge change).
	h := graph.NewEdgeSet(n)
	scratch := domtree.NewScratch(n)
	for u := 0; u < n; u++ {
		local := graph.New(n)
		for src, list := range known[u] {
			for _, v := range list {
				local.AddEdge(int(src), int(v))
			}
		}
		res.Recomputes += int64(len(known[u]))
		h.AddTree(build(local, scratch, u))
	}
	res.H = h
	return res
}
