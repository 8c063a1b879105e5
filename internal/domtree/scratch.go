package domtree

import (
	"slices"

	"remspan/internal/graph"
)

// Scratch holds every piece of per-root working state the CSR-based
// builders (KGreedyCSR, GreedyCSR, MISCSR, KMISCSR) need, so an
// all-roots construction sweep performs no per-root allocations:
//
//   - epoch-stamped uint32 arrays stand in for the map[int32]bool sets
//     of the map-based builders (membership ⇔ stamp equals the epoch the
//     set was built under; removal rewinds the stamp to zero, which is
//     never a live epoch);
//   - int32 counter arrays stand in for the map[int32]int counters
//     (hits, commonLeft), initialized lazily at stamping time;
//   - a pooled graph.Tree reset per root in O(previous tree size);
//   - a graph.BFSScratch for the bounded traversals;
//   - a reusable max-heap for lazy greedy selection;
//   - optional vertex labels, the tie-break keys (SetLabels).
//
// A Scratch is not safe for concurrent use; give each worker its own.
// The tree returned by a builder is owned by the scratch and valid only
// until the next builder call with the same scratch.
type Scratch struct {
	n   int
	bfs *graph.BFSScratch
	t   *graph.Tree

	epoch  uint32
	stampA []uint32
	stampB []uint32
	stampC []uint32
	stampD []uint32

	cnt1 []int32 // relay hit counts (KGreedy)
	cnt2 []int32 // remaining common neighbors with the root

	heap gainHeap

	label   []int32  // label[v]: v's tie-break key; nil: v itself
	byLabel []int32  // byLabel[l]: the vertex labelled l
	keys    []uint64 // sortByLabel's packed (label, vertex) keys

	buf1 []int32
	buf2 []int32
	buf3 []int32
	buf4 []int32
}

// NewScratch returns scratch space for graphs with up to n vertices.
func NewScratch(n int) *Scratch {
	return &Scratch{
		n:      n,
		bfs:    graph.NewBFSScratch(n),
		stampA: make([]uint32, n),
		stampB: make([]uint32, n),
		stampC: make([]uint32, n),
		stampD: make([]uint32, n),
		cnt1:   make([]int32, n),
		cnt2:   make([]int32, n),
	}
}

// SetLabels makes the builders break every tie by label[v] instead of
// by v, where byLabel is label's inverse permutation; nil, nil restores
// id order. Run on a snapshot permuted by order (graph.CSR.PermuteInto,
// whose rows keep the original neighbour order) with label = order, a
// builder returns the original snapshot's tree mapped through order:
// the same members, parents and insertion order.
func (s *Scratch) SetLabels(label, byLabel []int32) {
	s.label, s.byLabel = label, byLabel
}

// lab returns v's label.
func (s *Scratch) lab(v int32) int32 {
	if s.label == nil {
		return v
	}
	return s.label[v]
}

// sortByLabel sorts vs by ascending label. Labelled vertices are
// sorted as packed (label, vertex) words, so the comparison is a
// plain integer compare rather than a callback.
func (s *Scratch) sortByLabel(vs []int32) {
	if s.label == nil {
		slices.Sort(vs)
		return
	}
	keys := s.keys[:0]
	for _, v := range vs {
		keys = append(keys, uint64(s.label[v])<<32|uint64(v))
	}
	s.keys = keys
	slices.Sort(keys)
	for i, k := range keys {
		vs[i] = int32(uint32(k))
	}
}

// ensure returns s when it is usable for an n-vertex graph, or a fresh
// scratch otherwise (nil s keeps the builders usable standalone). It
// also reserves epoch headroom for the upcoming builder call: when the
// counter passes 2³¹, every stamp array is re-zeroed and the counter
// rewinds — at a call boundary, where no live epochs exist. A single
// call can never consume the remaining 2³¹ epochs (one epoch per
// logical set or witness check, bounded well below the int32 edge
// capacity of a CSR), so the counter cannot wrap mid-call, which would
// invalidate epochs captured earlier in the same call.
func ensure(s *Scratch, n int) *Scratch {
	if s == nil || s.n < n {
		return NewScratch(n) //remspan:coldpath first-call/regrow fallback; steady state reuses the caller's scratch
	}
	if s.epoch >= 1<<31 {
		for i := range s.stampA {
			s.stampA[i] = 0
			s.stampB[i] = 0
			s.stampC[i] = 0
			s.stampD[i] = 0
		}
		s.epoch = 0
	}
	return s
}

// nextEpoch starts a new stamp generation. Callers capture the returned
// epoch per logical set; bumping again for another set does not disturb
// earlier sets because they live in different stamp arrays (or disjoint
// phases). Zero is never a live epoch, so rewinding a stamp to zero
// removes an element. Wrap safety is handled at call boundaries in
// ensure.
func (s *Scratch) nextEpoch() uint32 {
	s.epoch++
	return s.epoch
}

// tree returns the pooled output tree reset to contain only root.
func (s *Scratch) tree(root int) *graph.Tree {
	if s.t == nil {
		s.t = graph.NewTree(s.n, root) //remspan:coldpath lazy first-call init; later roots reuse the pooled tree
	} else {
		s.t.Reset(root)
	}
	return s.t
}

// disjointWitnesses counts, with a stamp array instead of a branch map,
// the distinct root branches among v's tree neighbors within depth
// [1, maxDepth] — the most neighbors of v whose root paths are
// internally disjoint.
func (s *Scratch) disjointWitnesses(c graph.View, t *graph.Tree, v, maxDepth int) int {
	seen := s.stampD
	e := s.nextEpoch()
	count := 0
	for _, w := range c.Neighbors(v) {
		wi := int(w)
		if !t.Contains(wi) {
			continue
		}
		d := t.Depth(wi)
		if d < 1 || d > maxDepth {
			continue
		}
		b := t.Branch(wi)
		if seen[b] != e {
			seen[b] = e
			count++
		}
	}
	return count
}

// --- allocation-free max-heap for lazy greedy selection ---
//
// Orders by (gain desc, label asc) — exactly the eager greedy's
// deterministic tie-break (see the determinism contract in csr.go) —
// without the interface boxing of container/heap.

type gainItem struct {
	id   int32
	key  int32 // the vertex's label
	gain int32
}

// gainHeap is a max-heap on (gain, then smaller label first).
type gainHeap struct {
	items []gainItem
}

func (h *gainHeap) reset() { h.items = h.items[:0] }

func (h *gainHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	return a.key < b.key
}

func (h *gainHeap) push(it gainItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *gainHeap) siftDown(i, n int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(l, m) {
			m = l
		}
		if r < n && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h.items[i], h.items[m] = h.items[m], h.items[i]
		i = m
	}
}

func (h *gainHeap) pop() gainItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	h.siftDown(0, last)
	return top
}

// initHeap heapifies the current items in O(len).
func (h *gainHeap) initHeap() {
	n := len(h.items)
	for i := n/2 - 1; i >= 0; i-- {
		h.siftDown(i, n)
	}
}
