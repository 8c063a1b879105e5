// Package graph provides the static unweighted graph substrate used by
// every other package in this module: adjacency-list graphs, BFS
// traversals, edge sets, rooted trees and basic I/O.
//
// Graphs are simple (no self loops, no parallel edges) and undirected.
// Vertices are the integers 0..N()-1. Adjacency lists are kept sorted
// at all times so that neighbor queries are O(log deg) and iteration is
// deterministic.
package graph

import (
	"fmt"
)

// Graph is a simple undirected graph over vertices 0..n-1.
// The zero value is not usable; call New.
type Graph struct {
	adj [][]int32
	m   int
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{adj: make([][]int32, n)}
}

// FromEdges builds a graph on n vertices from an edge list.
// Duplicate edges and self loops are ignored.
func FromEdges(n int, edges [][2]int) *Graph {
	g := New(n)
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// FromView materializes a View as a mutable Graph. A *Graph input is
// returned as-is (no copy); CSR/CSRDelta inputs are rebuilt row by row.
func FromView(v View) *Graph {
	if g, ok := v.(*Graph); ok {
		return g
	}
	n := v.N()
	g := &Graph{adj: make([][]int32, n), m: v.M()}
	// One slab for all rows — at n=1M, per-row allocations dominate the
	// build and fragment the heap. Rows are capacity-clipped, so a later
	// AddEdge reallocates only its own row.
	flat := make([]int32, 0, 2*g.m)
	for u := 0; u < n; u++ {
		off := len(flat)
		flat = append(flat, v.Neighbors(u)...)
		g.adj[u] = flat[off:len(flat):len(flat)]
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

func (g *Graph) check(u int) {
	if u < 0 || u >= len(g.adj) {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", u, len(g.adj)))
	}
}

// searchGE returns the least index i with s[i] >= v (len(s) if none).
// It is sort.Search with the predicate open-coded: the closure form
// captures s and allocates, which the edge-maintenance hot paths
// (AddEdge/RemoveEdge/HasEdge under dynamic update batches) cannot
// afford.
func searchGE(s []int32, v int32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insertSorted inserts v into the sorted slice s if absent, reporting
// whether an insertion happened.
func insertSorted(s []int32, v int32) ([]int32, bool) {
	i := searchGE(s, v)
	if i < len(s) && s[i] == v {
		return s, false
	}
	s = append(s, 0) //remspan:coldpath amortized adjacency growth on edge insert
	copy(s[i+1:], s[i:])
	s[i] = v
	return s, true
}

// AddEdge adds the undirected edge {u, v}, reporting whether it was new.
// Self loops are rejected (returns false).
func (g *Graph) AddEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if u == v {
		return false
	}
	au, added := insertSorted(g.adj[u], int32(v))
	if !added {
		return false
	}
	g.adj[u] = au
	g.adj[v], _ = insertSorted(g.adj[v], int32(u))
	g.m++
	return true
}

// RemoveEdge removes the undirected edge {u, v}, reporting whether it
// was present.
func (g *Graph) RemoveEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if !g.HasEdge(u, v) {
		return false
	}
	g.adj[u] = removeSorted(g.adj[u], int32(v))
	g.adj[v] = removeSorted(g.adj[v], int32(u))
	g.m--
	return true
}

func removeSorted(s []int32, v int32) []int32 {
	i := searchGE(s, v)
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if u == v {
		return false
	}
	s := g.adj[u]
	i := searchGE(s, int32(v))
	return i < len(s) && s[i] == int32(v)
}

// Neighbors returns the sorted adjacency list of u.
// The returned slice is shared with the graph and must not be modified.
func (g *Graph) Neighbors(u int) []int32 {
	g.check(u)
	return g.adj[u]
}

// Degree returns the degree of u.
func (g *Graph) Degree(u int) int {
	g.check(u)
	return len(g.adj[u])
}

// MaxDegree returns the maximum degree over all vertices (0 for an
// empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, a := range g.adj {
		if len(a) > max {
			max = len(a)
		}
	}
	return max
}

// AvgDegree returns the average degree 2m/n (0 when n == 0).
func (g *Graph) AvgDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(len(g.adj))
}

// Clone returns a deep copy of g. Rows are carved from one slab
// (capacity-clipped, so mutating one row never clobbers a neighbor's)
// — per-row allocations dominate cloning at n=1M.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]int32, len(g.adj)), m: g.m}
	flat := make([]int32, 0, 2*g.m)
	for i, a := range g.adj {
		off := len(flat)
		flat = append(flat, a...)
		c.adj[i] = flat[off:len(flat):len(flat)]
	}
	return c
}

// Edges returns all edges as pairs (u, v) with u < v, sorted
// lexicographically.
func (g *Graph) Edges() [][2]int32 {
	out := make([][2]int32, 0, g.m)
	for u, a := range g.adj {
		for _, v := range a {
			if int32(u) < v {
				out = append(out, [2]int32{int32(u), v})
			}
		}
	}
	return out
}

// EachEdge calls f once per edge with u < v, in lexicographic order.
func (g *Graph) EachEdge(f func(u, v int)) {
	for u, a := range g.adj {
		for _, v := range a {
			if int32(u) < v {
				f(u, int(v))
			}
		}
	}
}

// CommonNeighbors returns the sorted intersection N(u) ∩ N(v).
func (g *Graph) CommonNeighbors(u, v int) []int32 {
	g.check(u)
	g.check(v)
	a, b := g.adj[u], g.adj[v]
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// InducedSubgraph returns the subgraph induced by keep (keep[v] true
// means v stays) on the same vertex ids; dropped vertices become
// isolated.
func (g *Graph) InducedSubgraph(keep []bool) *Graph {
	if len(keep) != len(g.adj) {
		panic("graph: keep mask length mismatch")
	}
	s := New(len(g.adj))
	g.EachEdge(func(u, v int) {
		if keep[u] && keep[v] {
			s.AddEdge(u, v)
		}
	})
	return s
}

// RemoveVertex returns a copy of g with all edges incident to x
// removed (x stays as an isolated vertex, preserving ids).
func (g *Graph) RemoveVertex(x int) *Graph {
	g.check(x)
	c := g.Clone()
	for _, v := range append([]int32(nil), c.adj[x]...) {
		c.RemoveEdge(x, int(v))
	}
	return c
}
