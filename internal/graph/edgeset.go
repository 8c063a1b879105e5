package graph

import "slices"

// EdgeSet is the one representation of a spanner H: a set of
// undirected edges over vertices 0..n-1, held as the sorted,
// duplicate-free canonical keys u<<32 | v with u < v. Membership is a
// binary search, equality a slice compare, and Edges and Graph are
// linear passes in key order. EdgeMarks.EdgeSet builds one from the
// construction's CSR union in one pass; NewEdgeSet builds one from any
// edge list, and UnionScratch rebuilds one in place for the holders of
// a live H.
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
func NewEdgeSet(n int, lists ...[][2]int32) *EdgeSet {
	s := new(EdgeSet)
	s.union(n, make([]int, n+1), lists)
	return s
}

// union makes s the set of the edges in lists over n vertices, reusing
// the capacity of s.keys; end is the counting sort's scratch, n+1
// zeros.
//
// The keys are bucketed by their smaller endpoint with a counting
// sort (one count pass, one prefix sum, one placement pass), which
// leaves each bucket holding one vertex's few keys; each bucket is
// then sorted and its duplicates dropped in place. Several lists (the
// maintainer's per-root trees) are read where they lie, not
// concatenated first.
//
//remspan:hotpath
func (s *EdgeSet) union(n int, end []int, lists [][][2]int32) {
	// end[u+1] counts, then (prefix sum) end[u] starts, bucket u; the
	// placement pass advances each end[u] to its bucket's end.
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
	keys := slices.Grow(s.keys[:0], end[n])[:end[n]]
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
	s.n, s.keys = n, keys[:out]
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

// csrInto writes the set's adjacency into c, reusing c's arrays.
// Degrees are counted up front, and key order keeps every row sorted
// with no sort: row u receives its smaller neighbours while the keys
// of those neighbours stream by, then its larger ones from its own
// keys.
//
//remspan:hotpath
func (s *EdgeSet) csrInto(c *CSR) {
	n := s.n
	checkEdgeSlots(2 * int64(len(s.keys)))
	// off[u+1] counts, then (prefix sum) off[u] starts, row u; the fill
	// advances each off[u] to its row's end, and a shift by one slot
	// turns the ends back into starts.
	off := slices.Grow(c.offsets[:0], n+1)[:n+1]
	clear(off)
	for _, k := range s.keys {
		off[k>>32+1]++
		off[uint32(k)+1]++
	}
	for u := 1; u <= n; u++ {
		off[u] += off[u-1]
	}
	targets := slices.Grow(c.targets[:0], 2*len(s.keys))[:2*len(s.keys)]
	for _, k := range s.keys {
		u, v := k>>32, uint32(k)
		targets[off[u]] = int32(v)
		off[u]++
		targets[off[v]] = int32(u)
		off[v]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
	c.offsets, c.targets = off, targets
}

// Graph materializes the set as a Graph on n vertices: the CSR row
// fill, with every adjacency list carved from its one target array.
func (s *EdgeSet) Graph() *Graph {
	var c CSR
	s.csrInto(&c)
	adj := make([][]int32, s.n)
	for u := range adj {
		adj[u] = c.targets[c.offsets[u]:c.offsets[u+1]:c.offsets[u+1]]
	}
	return &Graph{adj: adj, m: len(s.keys)}
}

// UnionScratch derives a spanner H, the union of per-root edge lists,
// as a CSR with sorted rows, in storage it keeps across calls: the
// counting sort of NewEdgeSet and the row fill of EdgeSet.Graph, run
// in place. H is a pure function of the trees, so its holders (the
// routing store, each replica) derive it again after the trees change
// instead of patching a copy. A warm scratch allocates nothing. Not
// safe for concurrent use.
type UnionScratch struct {
	set EdgeSet
	end []int
	csr CSR
}

// CSR returns the union of the edges in lists over n vertices, with
// the conventions of NewEdgeSet (either orientation, repeats and self
// loops allowed). The snapshot is scratch-owned: read-only, and valid
// until the next call.
//
//remspan:hotpath
func (u *UnionScratch) CSR(n int, lists ...[][2]int32) *CSR {
	u.end = slices.Grow(u.end[:0], n+1)[:n+1]
	clear(u.end)
	u.set.union(n, u.end, lists)
	u.set.csrInto(&u.csr)
	return &u.csr
}
