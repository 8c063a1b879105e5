package baseline

import (
	"container/heap"
	"math"
	"sort"

	"remspan/internal/geom"
)

// WeightedSpanner is a metric-weighted spanner: an edge list over the
// points of a metric.
type WeightedSpanner struct {
	N     int
	Edges []geom.WeightedEdge
	adj   [][]wedge
}

type wedge struct {
	to int32
	w  float64
}

func newWeightedSpanner(n int) *WeightedSpanner {
	return &WeightedSpanner{N: n, adj: make([][]wedge, n)}
}

func (s *WeightedSpanner) addEdge(e geom.WeightedEdge) {
	s.Edges = append(s.Edges, e)
	s.adj[e.U] = append(s.adj[e.U], wedge{to: int32(e.V), w: e.W})
	s.adj[e.V] = append(s.adj[e.V], wedge{to: int32(e.U), w: e.W})
}

// M returns the number of spanner edges.
func (s *WeightedSpanner) M() int { return len(s.Edges) }

// distHeap is a tiny binary heap for Dijkstra.
type distHeap struct {
	v []int32
	d []float64
}

func (h distHeap) Len() int            { return len(h.v) }
func (h distHeap) Less(i, j int) bool  { return h.d[i] < h.d[j] }
func (h *distHeap) Swap(i, j int)      { h.v[i], h.v[j] = h.v[j], h.v[i]; h.d[i], h.d[j] = h.d[j], h.d[i] }
func (h *distHeap) Push(x interface{}) { panic("use push") }
func (h *distHeap) Pop() interface{}   { panic("use pop") }

func (h *distHeap) push(v int32, d float64) {
	h.v = append(h.v, v)
	h.d = append(h.d, d)
	heap.Fix(h, len(h.v)-1)
}

func (h *distHeap) pop() (int32, float64) {
	v, d := h.v[0], h.d[0]
	n := len(h.v) - 1
	h.Swap(0, n)
	h.v, h.d = h.v[:n], h.d[:n]
	if n > 0 {
		heap.Fix(h, 0)
	}
	return v, d
}

// dijkstra returns the shortest s→t distance in the spanner, pruning
// the search at limit (returns +Inf beyond). blocked vertices (may be
// nil) are excluded as internal vertices.
func (s *WeightedSpanner) dijkstra(src, dst int, limit float64, blocked []bool) float64 {
	dist := make(map[int32]float64, 64)
	h := &distHeap{}
	h.push(int32(src), 0)
	dist[int32(src)] = 0
	for h.Len() > 0 {
		v, d := h.pop()
		if d > dist[v] {
			continue
		}
		if int(v) == dst {
			return d
		}
		if d > limit {
			return math.Inf(1)
		}
		for _, e := range s.adj[v] {
			if blocked != nil && blocked[e.to] && int(e.to) != dst {
				continue
			}
			nd := d + e.w
			if nd > limit {
				continue
			}
			if old, ok := dist[e.to]; !ok || nd < old {
				dist[e.to] = nd
				h.push(e.to, nd)
			}
		}
	}
	return math.Inf(1)
}

// GreedyTSpanner returns the greedy (t, 0)-spanner of the weighted
// unit-ball graph of m with connection radius r: candidate edges sorted
// by length, each kept iff the spanner so far has no t-approximate
// path. This is the classical path-greedy construction — the
// known-distances comparator for Table 1's UBG row (substituting for
// [9], see DESIGN.md §3). On bounded-doubling metrics it has O(n)
// edges.
func GreedyTSpanner(m geom.Metric, radius, t float64) *WeightedSpanner {
	if t < 1 {
		panic("baseline: t must be >= 1")
	}
	edges := geom.BallGraphEdges(m, radius)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].W != edges[j].W {
			return edges[i].W < edges[j].W
		}
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	s := newWeightedSpanner(m.Len())
	for _, e := range edges {
		if s.dijkstra(e.U, e.V, t*e.W, nil) > t*e.W {
			s.addEdge(e)
		}
	}
	return s
}

// FaultTolerantGreedy returns a k-fault-tolerant (t, 0)-spanner of the
// complete weighted graph on m (the geometric setting of [8]): pairs
// are scanned by increasing distance; a pair is skipped only when k+1
// internally vertex-disjoint t-paths are certified by greedy disjoint
// short-path extraction, so skipping is always sound and the output
// survives any k vertex deletions with stretch t.
func FaultTolerantGreedy(m geom.Metric, t float64, k int) *WeightedSpanner {
	if k < 0 {
		panic("baseline: k must be >= 0")
	}
	n := m.Len()
	var pairs []geom.WeightedEdge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, geom.WeightedEdge{U: i, V: j, W: m.Dist(i, j)})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].W != pairs[j].W {
			return pairs[i].W < pairs[j].W
		}
		if pairs[i].U != pairs[j].U {
			return pairs[i].U < pairs[j].U
		}
		return pairs[i].V < pairs[j].V
	})
	s := newWeightedSpanner(n)
	blocked := make([]bool, n)
	for _, e := range pairs {
		if s.certifyDisjointPaths(e, t, k+1, blocked) {
			continue
		}
		s.addEdge(e)
	}
	return s
}

// certifyDisjointPaths greedily extracts up to want internally
// vertex-disjoint u→v paths of length ≤ t·w. Finding them certifies the
// pair is safe to skip.
func (s *WeightedSpanner) certifyDisjointPaths(e geom.WeightedEdge, t float64, want int, blocked []bool) bool {
	for i := range blocked {
		blocked[i] = false
	}
	found := 0
	for found < want {
		path, ok := s.shortestPathWithin(e.U, e.V, t*e.W, blocked)
		if !ok {
			return false
		}
		for _, v := range path {
			if int(v) != e.U && int(v) != e.V {
				blocked[v] = true
			}
		}
		found++
	}
	return true
}

// shortestPathWithin is dijkstra with path extraction, avoiding blocked
// internal vertices and respecting a length limit.
func (s *WeightedSpanner) shortestPathWithin(src, dst int, limit float64, blocked []bool) ([]int32, bool) {
	type entry struct {
		d    float64
		prev int32
	}
	dist := make(map[int32]entry, 64)
	h := &distHeap{}
	h.push(int32(src), 0)
	dist[int32(src)] = entry{d: 0, prev: -1}
	for h.Len() > 0 {
		v, d := h.pop()
		if d > dist[v].d {
			continue
		}
		if int(v) == dst {
			var path []int32
			for x := v; x != -1; x = dist[x].prev {
				path = append(path, x)
			}
			return path, true
		}
		if d > limit {
			return nil, false
		}
		if blocked[v] && int(v) != src {
			continue
		}
		for _, e := range s.adj[v] {
			if blocked[e.to] && int(e.to) != dst {
				continue
			}
			nd := d + e.w
			if nd > limit {
				continue
			}
			if old, ok := dist[e.to]; !ok || nd < old.d {
				dist[e.to] = entry{d: nd, prev: v}
				h.push(e.to, nd)
			}
		}
	}
	return nil, false
}

// VerifyStretch checks d_S(i, j) ≤ t·m.Dist(i, j) for all pairs,
// returning the first violating pair or (-1, -1). For spanners of a
// ball graph, pairs beyond the radius are checked against ball-graph
// distances instead (metric distances are not achievable then), so pass
// radius = +Inf for complete-graph spanners.
func VerifyStretch(s *WeightedSpanner, m geom.Metric, radius, t float64) (int, int) {
	n := m.Len()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := m.Dist(i, j)
			if d > radius {
				continue
			}
			if s.dijkstra(i, j, t*d*(1+1e-9), nil) > t*d*(1+1e-9) {
				return i, j
			}
		}
	}
	return -1, -1
}
