package graph

// EdgeMarks accumulates a subset of a CSR snapshot's edges as one flag
// per canonical (u < v) adjacency slot. It is the allocation-free union
// accumulator of the spanner construction pipeline: dominating-tree
// edges are always edges of the snapshot, so marking a bit replaces a
// hash-map insert, worker merges are flag-wise ORs, and the final
// EdgeSet comes out of one scan in key order.
type EdgeMarks struct {
	c     *CSR
	mark  []bool // indexed by position in c's target array; u < v slots only
	count int
}

// NewEdgeMarks returns an empty accumulator over the snapshot c.
func NewEdgeMarks(c *CSR) *EdgeMarks {
	return &EdgeMarks{c: c, mark: make([]bool, len(c.targets))}
}

// Reset clears every mark, keeping the snapshot binding and backing
// storage — the per-worker accumulators of the parallel construction
// fan-out are pooled across builds and reset per run.
func (m *EdgeMarks) Reset() {
	if m.count == 0 {
		return
	}
	clear(m.mark)
	m.count = 0
}

// Add marks edge {u, v}, which must be an edge of the snapshot.
func (m *EdgeMarks) Add(u, v int) {
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	lo, hi := m.c.offsets[u], m.c.offsets[u+1]
	for lo < hi {
		mid := lo + (hi-lo)/2 // overflow-safe: lo+hi can exceed int32 on huge snapshots
		if m.c.targets[mid] < int32(v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= m.c.offsets[u+1] || m.c.targets[lo] != int32(v) {
		panic("graph: EdgeMarks.Add of an edge absent from the snapshot")
	}
	if !m.mark[lo] {
		m.mark[lo] = true
		m.count++
	}
}

// AddTree marks every edge of t.
func (m *EdgeMarks) AddTree(t *Tree) {
	for _, v := range t.Nodes() {
		if p := t.Parent(int(v)); p >= 0 {
			m.Add(int(v), p)
		}
	}
}

// Union ORs o (an accumulator over the same snapshot) into m.
func (m *EdgeMarks) Union(o *EdgeMarks) {
	for i, b := range o.mark {
		if b && !m.mark[i] {
			m.mark[i] = true
			m.count++
		}
	}
}

// EdgeSet returns the marked edges as an EdgeSet in one pass: CSR
// slot order is already the canonical key order, so the keys come out
// sorted and the slice is sized to the exact edge count.
func (m *EdgeMarks) EdgeSet() *EdgeSet {
	keys := make([]uint64, 0, m.count)
	for u := 0; u < m.c.N(); u++ {
		for i := m.c.offsets[u]; i < m.c.offsets[u+1]; i++ {
			if m.mark[i] {
				keys = append(keys, uint64(u)<<32|uint64(m.c.targets[i]))
			}
		}
	}
	return &EdgeSet{n: m.c.N(), keys: keys}
}
