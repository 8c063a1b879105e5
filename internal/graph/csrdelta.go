package graph

import (
	"fmt"
	"slices"
)

// CSRDelta is a CSR snapshot that accepts edge patches: rows of the
// base snapshot are copied on first write into per-vertex owned slices
// (with a little slack capacity) and edited in place from then on.
// Untouched vertices keep reading the contiguous base arrays.
//
// It is the substrate of snapshot-free incremental maintenance
// (internal/dynamic): a single edge toggle costs O(deg(u)+deg(v)) row
// edits instead of the O(n+m) re-snapshot a fresh NewCSR would pay, and
// after the first touch of a vertex the edits allocate nothing. Rows
// stay sorted, so every builder running on the View interface produces
// bit-identical output on a CSRDelta and on a fresh CSR of the same
// graph (asserted by TestCSRDeltaMatchesFreshCSR and the churn
// equivalence tests).
//
// A CSRDelta is not safe for concurrent mutation; concurrent reads
// without a writer are fine (the maintainer's parallel rebuild fan-out
// relies on this).
type CSRDelta struct {
	base *CSR
	over [][]int32 // nil = vertex still reads the base row
	m    int
}

// NewCSRDelta returns a patchable view over the snapshot c. The base
// snapshot is shared, not copied; it must not be mutated elsewhere
// (CSR is immutable by contract).
func NewCSRDelta(c *CSR) *CSRDelta {
	return &CSRDelta{base: c, over: make([][]int32, c.N()), m: c.M()}
}

// N returns the vertex count.
func (d *CSRDelta) N() int { return d.base.N() }

// M returns the current edge count (base edges plus applied patches).
func (d *CSRDelta) M() int { return d.m }

// row returns u's current adjacency slice.
func (d *CSRDelta) row(u int) []int32 {
	if r := d.over[u]; r != nil {
		return r
	}
	return d.base.Neighbors(u)
}

// Degree returns the degree of u.
func (d *CSRDelta) Degree(u int) int { return len(d.row(u)) }

// Neighbors returns u's sorted adjacency slice (shared, do not modify;
// valid until the next patch touching u).
func (d *CSRDelta) Neighbors(u int) []int32 { return d.row(u) }

// CheckVertex panics unless 0 <= u < N(). Neighbors and Degree skip
// it: every builder's inner loop calls them.
func (d *CSRDelta) CheckVertex(u int) {
	if u < 0 || u >= d.base.N() {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", u, d.base.N()))
	}
}

// HasEdge reports whether {u, v} is currently an edge.
func (d *CSRDelta) HasEdge(u, v int) bool {
	d.CheckVertex(u)
	d.CheckVertex(v)
	if u == v {
		return false
	}
	_, ok := slices.BinarySearch(d.row(u), int32(v))
	return ok
}

// own makes u's row writable: the first touch copies the base row into
// an owned slice with slack capacity so subsequent single-edge inserts
// do not allocate.
func (d *CSRDelta) own(u int) []int32 {
	if r := d.over[u]; r != nil {
		return r
	}
	b := d.base.Neighbors(u)
	r := make([]int32, len(b), len(b)+4) //remspan:coldpath copy-on-write row materialization, once per touched row per delta window
	copy(r, b)
	d.over[u] = r
	return r
}

// AddEdge patches the undirected edge {u, v} in, reporting whether it
// was new. Self loops are rejected.
func (d *CSRDelta) AddEdge(u, v int) bool {
	d.CheckVertex(u)
	d.CheckVertex(v)
	if u == v || d.HasEdge(u, v) {
		return false
	}
	ru, _ := insertSorted(d.own(u), int32(v))
	d.over[u] = ru
	rv, _ := insertSorted(d.own(v), int32(u))
	d.over[v] = rv
	d.m++
	return true
}

// RemoveEdge patches the undirected edge {u, v} out, reporting whether
// it was present.
func (d *CSRDelta) RemoveEdge(u, v int) bool {
	d.CheckVertex(u)
	d.CheckVertex(v)
	if u == v || !d.HasEdge(u, v) {
		return false
	}
	d.over[u] = removeSorted(d.own(u), int32(v))
	d.over[v] = removeSorted(d.own(v), int32(u))
	d.m--
	return true
}
