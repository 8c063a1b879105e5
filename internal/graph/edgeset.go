package graph

import "slices"

// EdgeSet is the one representation of a spanner H: an immutable set
// of undirected edges over vertices 0..n-1, held as the sorted,
// duplicate-free canonical keys u<<32 | v with u < v. Membership is a
// binary search, equality a slice compare, and Edges and Graph are
// linear passes in key order. EdgeMarks.EdgeSet builds one from the
// construction's CSR union in one pass; NewEdgeSet builds one from any
// edge list.
type EdgeSet struct {
	n    int
	keys []uint64
}

// edgeKey returns the canonical key of {u, v} (u != v).
func edgeKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// NewEdgeSet returns the set of the given edges over n vertices. Pairs
// may come in either orientation and repeat; self loops are dropped.
// It panics on an endpoint outside 0..n-1.
func NewEdgeSet(n int, edges [][2]int32) *EdgeSet {
	keys := make([]uint64, 0, len(edges))
	for _, e := range edges {
		if e[0] < 0 || e[1] < 0 || int(e[0]) >= n || int(e[1]) >= n {
			panic("graph: edge endpoint out of range")
		}
		if e[0] != e[1] {
			keys = append(keys, edgeKey(e[0], e[1]))
		}
	}
	slices.Sort(keys)
	return &EdgeSet{n: n, keys: slices.Clip(slices.Compact(keys))}
}

// Len returns the number of edges in the set.
func (s *EdgeSet) Len() int { return len(s.keys) }

// Has reports whether {u, v} is in the set.
func (s *EdgeSet) Has(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= s.n || v >= s.n {
		return false
	}
	_, ok := slices.BinarySearch(s.keys, edgeKey(int32(u), int32(v)))
	return ok
}

// Equal reports whether s and o contain exactly the same edges.
func (s *EdgeSet) Equal(o *EdgeSet) bool { return slices.Equal(s.keys, o.keys) }

// Edges returns the edges sorted lexicographically with u < v.
func (s *EdgeSet) Edges() [][2]int32 {
	out := make([][2]int32, len(s.keys))
	for i, k := range s.keys {
		out[i] = [2]int32{int32(k >> 32), int32(uint32(k))}
	}
	return out
}

// Graph materializes the set as a Graph on n vertices. Degrees are
// counted up front and the adjacency lists are carved from one flat
// backing array; key order keeps every list sorted (row u receives
// its smaller neighbors while the keys of those neighbors stream by,
// then its larger ones from its own keys), so there is no per-insert
// allocation or shifting.
func (s *EdgeSet) Graph() *Graph {
	deg := make([]int32, s.n)
	for _, k := range s.keys {
		deg[k>>32]++
		deg[uint32(k)]++
	}
	flat := make([]int32, 2*len(s.keys))
	adj := make([][]int32, s.n)
	off := 0
	for u, d := range deg {
		adj[u] = flat[off : off : off+int(d)]
		off += int(d)
	}
	for _, k := range s.keys {
		u, v := int32(k>>32), int32(uint32(k))
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	return &Graph{adj: adj, m: len(s.keys)}
}
