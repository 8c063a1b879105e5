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

// NewEdgeSet returns the set of the edges in the given lists over n
// vertices. Pairs may come in either orientation and repeat; self
// loops are dropped. It panics on an endpoint outside 0..n-1.
//
// The keys are bucketed by their smaller endpoint with a counting
// sort (one count pass, one prefix sum, one placement pass), which
// leaves each bucket holding one vertex's few keys; each bucket is
// then sorted and its duplicates dropped in place. Several lists (the
// maintainer's per-root trees) are read where they lie, not
// concatenated first.
func NewEdgeSet(n int, lists ...[][2]int32) *EdgeSet {
	// end[u+1] counts, then (prefix sum) end[u] starts, bucket u; the
	// placement pass advances each end[u] to its bucket's end.
	end := make([]int, n+1)
	for _, edges := range lists {
		for _, e := range edges {
			if e[0] < 0 || e[1] < 0 || int(e[0]) >= n || int(e[1]) >= n {
				panic("graph: edge endpoint out of range")
			}
			if e[0] != e[1] {
				end[min(e[0], e[1])+1]++
			}
		}
	}
	for u := 1; u <= n; u++ {
		end[u] += end[u-1]
	}
	keys := make([]uint64, end[n])
	for _, edges := range lists {
		for _, e := range edges {
			if e[0] != e[1] {
				u := min(e[0], e[1])
				keys[end[u]] = edgeKey(e[0], e[1])
				end[u]++
			}
		}
	}
	out, lo := 0, 0
	for _, hi := range end[:n] {
		bucket := keys[lo:hi]
		slices.Sort(bucket)
		for i, k := range bucket {
			if i == 0 || k != bucket[i-1] {
				keys[out] = k
				out++
			}
		}
		lo = hi
	}
	return &EdgeSet{n: n, keys: keys[:out:out]}
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
