package graph

import "math/bits"

// EdgeMarks accumulates a subset of a CSR snapshot's edges as one bit
// per adjacency slot: edge {u, v} is the slot of v in the row of its
// canonical endpoint u, the one with the smaller label (by default a
// vertex's label is its id). It is the allocation-free union
// accumulator of the spanner construction pipeline: dominating-tree
// edges are always edges of the snapshot, so setting a bit replaces a
// hash-map insert, worker merges are word-wise ORs, and the final
// EdgeSet comes out of one scan in key order.
type EdgeMarks struct {
	c     *CSR
	label []int32  // label[v]: v's label, which picks canonical endpoints; nil: v
	mark  []uint64 // bit i: slot i of c's target array is marked
	count int
}

// NewEdgeMarks returns an empty accumulator over the snapshot c,
// labelled by id.
func NewEdgeMarks(c *CSR) *EdgeMarks {
	m := &EdgeMarks{}
	m.Bind(c, nil)
	return m
}

// Bind empties m and rebinds it to the snapshot c with vertex labels
// label (nil: by id), reusing the bitset when it is large enough. With
// the labels of a PermuteInto snapshot (its order, the original ids),
// every row is ascending in label and each edge is marked at the slot
// UnionPermuted maps to the original snapshot's canonical slot.
func (m *EdgeMarks) Bind(c *CSR, label []int32) {
	m.Reset()
	words := (len(c.targets) + 63) / 64
	if cap(m.mark) < words {
		m.mark = make([]uint64, words) //remspan:coldpath grow to the slot high-water mark, then reused
	}
	m.mark = m.mark[:words]
	m.c, m.label = c, label
}

// Reset clears every mark, keeping the snapshot binding and backing
// storage. No bit is ever set past the bitset's length, so clearing
// the length leaves the whole backing array zero.
func (m *EdgeMarks) Reset() {
	if m.count == 0 {
		return
	}
	clear(m.mark)
	m.count = 0
}

// lab returns v's label.
func (m *EdgeMarks) lab(v int32) int32 {
	if m.label == nil {
		return v
	}
	return m.label[v]
}

// set marks slot i.
func (m *EdgeMarks) set(i int32) {
	w, b := i>>6, uint64(1)<<(i&63)
	if m.mark[w]&b == 0 {
		m.mark[w] |= b
		m.count++
	}
}

// Add marks edge {u, v}, which must be an edge of the snapshot.
func (m *EdgeMarks) Add(u, v int) {
	if u == v {
		return
	}
	a, b := int32(u), int32(v)
	la, lb := m.lab(a), m.lab(b)
	if la > lb {
		a, b, lb = b, a, la
	}
	end := m.c.offsets[a+1]
	lo, hi := m.c.offsets[a], end
	for lo < hi {
		mid := lo + (hi-lo)/2 // overflow-safe: lo+hi can exceed int32 on huge snapshots
		if m.lab(m.c.targets[mid]) < lb {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= end || m.c.targets[lo] != b {
		panic("graph: EdgeMarks.Add of an edge absent from the snapshot")
	}
	m.set(lo)
}

// AddTree marks every edge of t.
func (m *EdgeMarks) AddTree(t *Tree) {
	for _, v := range t.Nodes() {
		if p := t.Parent(int(v)); p >= 0 {
			m.Add(int(v), p)
		}
	}
}

// Union ORs o, an accumulator over the same snapshot and labels, into
// m.
func (m *EdgeMarks) Union(o *EdgeMarks) {
	for i, w := range o.mark {
		if add := w &^ m.mark[i]; add != 0 {
			m.mark[i] |= add
			m.count += bits.OnesCount64(add)
		}
	}
}

// UnionPermuted ORs o into m, labelled by id, where o's snapshot is
// m's permuted by o's labels (m.c.PermuteInto(o.c, o.label, rank)).
// Slot j of o's row u is slot j of m's row o.label[u], and o marks an
// edge in the row of its smaller original id, so every mark maps to
// m's canonical slot with no search: one pass over o's set bits.
func (m *EdgeMarks) UnionPermuted(o *EdgeMarks) {
	u := int32(0)
	for wi, w := range o.mark {
		for ; w != 0; w &= w - 1 {
			i := int32(wi<<6 + bits.TrailingZeros64(w))
			for o.c.offsets[u+1] <= i {
				u++
			}
			m.set(m.c.offsets[o.label[u]] + i - o.c.offsets[u])
		}
	}
}

// EdgeSet returns the marked edges of an accumulator labelled by id as
// an EdgeSet in one pass: CSR slot order is then the canonical key
// order, so the keys come out sorted and the slice is sized to the
// exact edge count.
func (m *EdgeMarks) EdgeSet() *EdgeSet {
	keys := make([]uint64, 0, m.count)
	for u := 0; u < m.c.N(); u++ {
		for i := m.c.offsets[u]; i < m.c.offsets[u+1]; i++ {
			if m.mark[i>>6]&(1<<(i&63)) != 0 {
				keys = append(keys, uint64(u)<<32|uint64(m.c.targets[i]))
			}
		}
	}
	return &EdgeSet{n: m.c.N(), keys: keys}
}
