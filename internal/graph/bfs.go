package graph

import "slices"

// Unreached marks vertices not reached by a traversal.
const Unreached = int32(-1)

// BFS returns the distance from src to every vertex (Unreached where
// disconnected).
func BFS(g *Graph, src int) []int32 {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = Unreached
	}
	queue := make([]int32, 0, g.N())
	dist[src] = 0
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] == Unreached {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// BFSTree returns BFS parents and distances from src. parent[src] = -1
// and parent[v] = -1 for unreachable v (distinguish via dist).
// Parents are the smallest-id neighbor at the previous level, so the
// tree is deterministic.
func BFSTree(g *Graph, src int) (parent, dist []int32) {
	dist = make([]int32, g.N())
	parent = make([]int32, g.N())
	for i := range dist {
		dist[i] = Unreached
		parent[i] = -1
	}
	queue := make([]int32, 0, g.N())
	dist[src] = 0
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] == Unreached {
				dist[v] = dist[u] + 1
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return parent, dist
}

// BFSScratch holds reusable buffers for bounded BFS so that repeated
// per-vertex traversals do not pay an O(n) reset each call.
type BFSScratch struct {
	dist   []int32
	parent []int32
	queue  []int32 // the last run's reached vertices: what the next run resets

	// Epoch-stamped accumulator for unions of bounded sweeps (the dirty
	// sets of incremental maintenance): membership is "stamp equals the
	// current epoch", so starting a new union is O(1) and accumulation
	// allocates nothing once the buffers are warm.
	unionMark  []uint32
	unionEpoch uint32
	unionList  []int32
}

// NewBFSScratch returns scratch space for graphs with up to n vertices.
func NewBFSScratch(n int) *BFSScratch {
	s := &BFSScratch{
		dist:   make([]int32, n),
		parent: make([]int32, n),
		queue:  make([]int32, 0, n),
	}
	for i := range s.dist {
		s.dist[i] = Unreached
		s.parent[i] = -1
	}
	return s
}

// BoundedView runs a BFS from src over any View limited to distance
// maxDist and returns (dist, parent, visited) views valid until the
// next call. dist and parent are full-length slices with
// Unreached/-1 outside the ball; visited lists the reached vertices in
// BFS order (src first). The mutable graph, the immutable CSR
// snapshots of the batch pipeline and the patched CSRDelta of the
// incremental maintainer all run this one traversal.
//
//remspan:hotpath
func (s *BFSScratch) BoundedView(c View, src, maxDist int) (dist, parent, visited []int32) {
	// Reset only the vertices the previous run reached. The queue holds
	// exactly those and is sized n up front, so no run grows a buffer:
	// a scratch first used mid-pin (a pool helper that stole its first
	// shard) allocates nothing.
	for _, v := range s.queue {
		s.dist[v] = Unreached
		s.parent[v] = -1
	}
	s.queue = s.queue[:0]

	s.dist[src] = 0
	s.queue = append(s.queue, int32(src))
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		if int(s.dist[u]) >= maxDist {
			continue
		}
		for _, v := range c.Neighbors(int(u)) {
			if s.dist[v] == Unreached {
				s.dist[v] = s.dist[u] + 1
				s.parent[v] = u
				s.queue = append(s.queue, v)
			}
		}
	}
	return s.dist, s.parent, s.queue
}

// ResetUnion starts a new (empty) accumulated union of bounded sweeps.
func (s *BFSScratch) ResetUnion() {
	if s.unionMark == nil {
		s.unionMark = make([]uint32, len(s.dist)) //remspan:coldpath lazy first-use init of the union stamp array
	}
	// Epoch wrap: re-zero at a boundary where no live epochs exist (the
	// same scheme as domtree.Scratch).
	if s.unionEpoch >= 1<<31 {
		for i := range s.unionMark {
			s.unionMark[i] = 0
		}
		s.unionEpoch = 0
	}
	s.unionEpoch++
	s.unionList = s.unionList[:0]
}

// UnionBounded runs a bounded BFS from src over v and adds every reached
// vertex to the union accumulated since the last ResetUnion.
//
//remspan:hotpath
func (s *BFSScratch) UnionBounded(v View, src, maxDist int) {
	_, _, visited := s.BoundedView(v, src, maxDist)
	e := s.unionEpoch
	for _, w := range visited {
		if s.unionMark[w] != e {
			s.unionMark[w] = e
			s.unionList = append(s.unionList, w)
		}
	}
}

// UnionSorted returns the accumulated union sorted ascending — a
// deterministic order regardless of how the sweeps interleaved. The
// slice is scratch-owned and valid until the next ResetUnion.
func (s *BFSScratch) UnionSorted() []int32 {
	slices.Sort(s.unionList)
	return s.unionList
}
