package spanner

import "remspan/internal/graph"

// The augmented view H_u of the paper: the spanner H plus all edges
// between u and its neighbors in G. Every distance guarantee of a
// remote-spanner is stated in H_u, never in H alone.

// View materializes H_u as a Graph. h must be a subgraph of g on the
// same vertex set.
func View(g, h *graph.Graph, u int) *graph.Graph {
	hu := h.Clone()
	for _, v := range g.Neighbors(u) {
		hu.AddEdge(u, int(v))
	}
	return hu
}

// ViewBFS returns BFS distances from u in H_u without materializing it:
// u's incident edges come from g, all other adjacency from h.
func ViewBFS(g, h *graph.Graph, u int) []int32 {
	n := g.N()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = graph.Unreached
	}
	dist[u] = 0
	queue := make([]int32, 0, n)
	for _, v := range g.Neighbors(u) {
		if dist[v] == graph.Unreached {
			dist[v] = 1
			queue = append(queue, v)
		}
	}
	// Edges of h incident to u also exist in H_u but only lead back to
	// u (distance 0), so plain h-adjacency BFS from the seeded frontier
	// is exact.
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		for _, v := range h.Neighbors(int(x)) {
			if dist[v] == graph.Unreached {
				dist[v] = dist[x] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// ViewScratch is ViewBFS over CSR snapshots with reusable buffers,
// for repeated single-source traversals.
type ViewScratch struct {
	dist  []int32
	queue []int32
}

// NewViewScratch returns scratch space for n-vertex views.
func NewViewScratch(n int) *ViewScratch {
	d := make([]int32, n)
	for i := range d {
		d[i] = graph.Unreached
	}
	return &ViewScratch{dist: d, queue: make([]int32, 0, n)}
}

// BFSCSR returns distances from u in H_u over CSR snapshots of g and h
// (u's incident edges from cg, all other adjacency from ch); the slice
// is valid until the next call (oracle queries, scalar validation,
// Check's witness d_{H_u}).
func (s *ViewScratch) BFSCSR(cg, ch *graph.CSR, u int) []int32 {
	for _, v := range s.queue {
		s.dist[v] = graph.Unreached
	}
	s.queue = s.queue[:0]

	s.dist[u] = 0
	s.queue = append(s.queue, int32(u))
	// Seed with G-neighbors of u, then continue over h.
	for _, v := range cg.Neighbors(u) {
		if s.dist[v] == graph.Unreached {
			s.dist[v] = 1
			s.queue = append(s.queue, v)
		}
	}
	for head := 1; head < len(s.queue); head++ {
		x := s.queue[head]
		for _, v := range ch.Neighbors(int(x)) {
			if s.dist[v] == graph.Unreached {
				s.dist[v] = s.dist[x] + 1
				s.queue = append(s.queue, v)
			}
		}
	}
	return s.dist
}
