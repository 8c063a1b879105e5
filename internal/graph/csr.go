package graph

import (
	"fmt"
	"slices"
)

// CSR is an immutable compressed-sparse-row snapshot of a Graph: one
// contiguous target array indexed by per-vertex offsets. Traversal-heavy
// sweeps (all-roots BFS during spanner construction/verification) are
// memory-bound; CSR removes the per-vertex slice headers and pointer
// chases of the mutable representation (ablation:
// BenchmarkAblationCSR). Every row is sorted by id, except in a
// PermuteInto snapshot, whose rows are sorted by original id and which
// only readers that do not depend on row order take: the
// dominating-tree builders, EdgeMarks and the word-parallel judge.
type CSR struct {
	offsets []int32
	targets []int32
}

// maxEdgeSlots is the largest directed adjacency-slot count (2m) a CSR
// can index: offsets are int32, so every slot index must fit one. The
// ceiling is ~1.07 billion undirected edges — graphs past it must
// shard. Like the routing engine's MaxN, the bound is
// re-checked at every snapshot so an overflow panics instead of
// silently wrapping offsets negative (which would corrupt every
// downstream sweep).
const maxEdgeSlots = 1<<31 - 1

// checkEdgeSlots panics when slots directed slots cannot be indexed by
// int32 CSR offsets. Factored out of the snapshot paths so the
// boundary is unit-testable without materializing 2³¹ edge slots.
func checkEdgeSlots(slots int64) {
	if slots > maxEdgeSlots {
		panic(fmt.Sprintf("graph: %d directed edge slots overflow int32 CSR offsets (max %d undirected edges)", slots, int64(maxEdgeSlots)/2))
	}
}

// NewCSR snapshots g, any View, in O(n + m). The snapshot does not
// observe later mutations.
func NewCSR(g View) *CSR {
	n := g.N()
	checkEdgeSlots(2 * int64(g.M()))
	c := &CSR{
		offsets: make([]int32, n+1),
		targets: make([]int32, 0, 2*g.M()),
	}
	for u := 0; u < n; u++ {
		c.offsets[u] = int32(len(c.targets))
		c.targets = append(c.targets, g.Neighbors(u)...)
	}
	c.offsets[n] = int32(len(c.targets))
	return c
}

// BFSOrder writes into order the vertices of c in breadth-first order,
// each component from its smallest id and each row scanned in its
// stored order, and into rank the inverse permutation (rank[order[i]]
// == i); both must have length c.N(). One serial O(n + m) pass, with
// order as the queue. Consecutive ids of the order are close in the
// graph, so the balls of consecutive roots share cache lines.
func (c *CSR) BFSOrder(order, rank []int32) {
	for i := range rank {
		rank[i] = -1
	}
	head, tail := 0, 0
	for s := range rank {
		if rank[s] >= 0 {
			continue
		}
		rank[s], order[tail] = int32(tail), int32(s)
		tail++
		for ; head < tail; head++ {
			for _, w := range c.Neighbors(int(order[head])) {
				if rank[w] < 0 {
					rank[w], order[tail] = int32(tail), w
					tail++
				}
			}
		}
	}
}

// PermuteInto makes dst the snapshot of c in which vertex order[i]
// becomes vertex i, for a permutation order of 0..n-1 with inverse
// rank. Every row keeps c's neighbour order: slot j of row i holds the
// new id of slot j of c's row order[i], so a row is ascending in
// original id (order[w]), not in new id. dst's arrays are reused when
// they are large enough.
func (c *CSR) PermuteInto(dst *CSR, order, rank []int32) {
	dst.offsets = slices.Grow(dst.offsets[:0], c.N()+1)[:c.N()+1]
	dst.targets = slices.Grow(dst.targets[:0], len(c.targets))[:len(c.targets)]
	k := int32(0)
	for i, u := range order {
		for _, w := range c.Neighbors(int(u)) {
			dst.targets[k] = rank[w]
			k++
		}
		dst.offsets[i+1] = k
	}
	dst.offsets[0] = 0
}

// N returns the vertex count.
func (c *CSR) N() int { return len(c.offsets) - 1 }

// M returns the edge count.
func (c *CSR) M() int { return len(c.targets) / 2 }

// Degree returns the degree of u.
func (c *CSR) Degree(u int) int { return int(c.offsets[u+1] - c.offsets[u]) }

// Neighbors returns u's adjacency slice (shared, do not modify),
// ascending in id — in original id for a PermuteInto snapshot.
func (c *CSR) Neighbors(u int) []int32 {
	return c.targets[c.offsets[u]:c.offsets[u+1]]
}

// SubsetOf reports whether every edge of c is an edge of d (same
// vertex count assumed). One merge scan per row over the sorted
// adjacencies — O(m_c + m_d).
func (c *CSR) SubsetOf(d *CSR) bool {
	if c.N() != d.N() {
		return false
	}
	for u := 0; u < c.N(); u++ {
		sub, super := c.Neighbors(u), d.Neighbors(u)
		j := 0
		for _, v := range sub {
			for j < len(super) && super[j] < v {
				j++
			}
			if j >= len(super) || super[j] != v {
				return false
			}
			j++
		}
	}
	return true
}
