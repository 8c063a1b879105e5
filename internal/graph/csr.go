package graph

import "fmt"

// CSR is an immutable compressed-sparse-row snapshot of a Graph: one
// contiguous target array indexed by per-vertex offsets. Traversal-heavy
// sweeps (all-roots BFS during spanner construction/verification) are
// memory-bound; CSR removes the per-vertex slice headers and pointer
// chases of the mutable representation (ablation:
// BenchmarkAblationCSR).
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

// NewCSR snapshots g. The snapshot does not observe later mutations.
func NewCSR(g *Graph) *CSR {
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

// Relabel returns a snapshot of c in which vertex order[i] becomes
// vertex i, for a permutation order of 0..n-1. The rows come out
// sorted without a sort: new ids are visited in ascending order and
// each is appended to the rows of its neighbours, which the symmetric
// adjacency makes exactly the relabeled rows.
func (c *CSR) Relabel(order []int32) *CSR {
	n := c.N()
	r := &CSR{offsets: make([]int32, n+1), targets: make([]int32, len(c.targets))}
	rank := make([]int32, n) // rank[order[i]] == i
	for i, u := range order {
		rank[u] = int32(i)
		r.offsets[i+1] = r.offsets[i] + c.offsets[u+1] - c.offsets[u]
	}
	fill := make([]int32, n) // next free slot of each new row
	copy(fill, r.offsets)
	for i, u := range order {
		for _, w := range c.Neighbors(int(u)) {
			x := rank[w]
			r.targets[fill[x]] = int32(i)
			fill[x]++
		}
	}
	return r
}

// N returns the vertex count.
func (c *CSR) N() int { return len(c.offsets) - 1 }

// M returns the edge count.
func (c *CSR) M() int { return len(c.targets) / 2 }

// Degree returns the degree of u.
func (c *CSR) Degree(u int) int { return int(c.offsets[u+1] - c.offsets[u]) }

// Neighbors returns u's sorted adjacency slice (shared, do not modify).
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
