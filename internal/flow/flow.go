// Package flow computes minimum-total-length disjoint paths in
// unweighted graphs via unit-capacity min-cost flow. It provides the
// k-connecting distance d^k(s, t) of the paper — the minimum length sum
// of k internally vertex-disjoint s→t paths — together with the paths
// themselves, and the edge-disjoint distance for the paper's
// concluding extension.
package flow

// mcmf is a small successive-shortest-path min-cost max-flow solver on
// unit capacities. Costs may become negative on residual arcs, so
// shortest paths use SPFA (queue-based Bellman–Ford), which is exact
// and fast at these sizes.
type mcmf struct {
	n    int
	head []int32
	next []int32
	to   []int32
	cap  []int32
	cost []int32
}

func newMCMF(n int) *mcmf {
	h := make([]int32, n)
	for i := range h {
		h[i] = -1
	}
	return &mcmf{n: n, head: h}
}

// addArc adds a directed arc u→v with the given capacity and cost plus
// its zero-capacity reverse arc. Arc ids are even; reverse = id^1.
func (f *mcmf) addArc(u, v, capacity, cost int32) {
	f.next = append(f.next, f.head[u])
	f.to = append(f.to, v)
	f.cap = append(f.cap, capacity)
	f.cost = append(f.cost, cost)
	f.head[u] = int32(len(f.to) - 1)

	f.next = append(f.next, f.head[v])
	f.to = append(f.to, u)
	f.cap = append(f.cap, 0)
	f.cost = append(f.cost, -cost)
	f.head[v] = int32(len(f.to) - 1)
}

const inf = int32(1) << 30

// augment finds a min-cost augmenting path s→t in the residual network
// and pushes one unit along it, returning the path cost (ok=false when
// t is unreachable).
func (f *mcmf) augment(s, t int32) (int32, bool) {
	dist := make([]int32, f.n)
	inQueue := make([]bool, f.n)
	prevArc := make([]int32, f.n)
	for i := range dist {
		dist[i] = inf
		prevArc[i] = -1
	}
	dist[s] = 0
	queue := []int32{s}
	inQueue[s] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		inQueue[u] = false
		for e := f.head[u]; e != -1; e = f.next[e] {
			if f.cap[e] <= 0 {
				continue
			}
			v := f.to[e]
			if nd := dist[u] + f.cost[e]; nd < dist[v] {
				dist[v] = nd
				prevArc[v] = e
				if !inQueue[v] {
					inQueue[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	if dist[t] >= inf {
		return 0, false
	}
	for v := t; v != s; {
		e := prevArc[v]
		f.cap[e]--
		f.cap[e^1]++
		v = f.to[e^1]
	}
	return dist[t], true
}
