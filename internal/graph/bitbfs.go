package graph

import (
	"math/bits"
	"slices"
)

// BitScratch is a word-parallel batched BFS engine: up to 64 sources
// traverse the graph in one sweep, with source i owning bit i of a
// per-vertex uint64 mask. One mask-OR per edge replaces 64 scalar
// queue pushes, so an all-pairs verification pass costs O(m·n/64)
// word operations instead of O(m·n) cache-missing scalar steps.
//
// A batch proceeds level-synchronously: each vertex carries a visited
// mask (bits that have ever reached it), a frontier mask (bits whose
// wavefront sits on it at the current level) and a next mask (bits
// arriving for the following level). A vertex's distance from source i
// is the level at which bit i first set — recorded into the 64-entry
// row dist[v·64 .. v·64+63] the moment the bit turns on. Rows are only
// meaningful under their visited mask, so they never need clearing.
//
// The three masks are interleaved into one 32-byte-aligned stripe per
// vertex (words[4v..4v+2], one word of padding) so the random access
// an edge visit performs lands on a single cache line; the dist rows
// stay separate — they are written once per (source, vertex) pair and
// read back sequentially by the verification scans.
//
// All state resets through touched lists (the same discipline as
// domtree.Scratch and BFSScratch): Begin re-zeroes only the vertices
// the previous batch reached, and every slice is pre-sized, so a warm
// scratch runs an arbitrary number of batches with zero allocations
// (pinned by TestBitSweepZeroAlloc).
//
// The frontier bookkeeping is branch-free: an edge visit writes its
// candidate vertex into its list unconditionally and advances the
// list's length by a flag-derived 0 or 1 (compiled to a SETcc and an
// ADD, no jump), instead of an append behind a data-dependent branch.
// A list holds at most n distinct vertices and never grows. Once
// arrivals or touched holds all n, a further edge visit or arrival
// still writes one slot past the kept ones, so those two carry one
// sentinel slot (capacity n+1); the next frontier is written at most
// at the index of the arrival being read, so cur and nxt need none.
//
// A BitScratch is not safe for concurrent use; verification pools give
// each worker its own.
type BitScratch struct {
	stripes []stripe // per-vertex mask stripe (one cache-line half)
	dist    []int32  // dist[v<<6|i] = level bit i first reached v

	cur, nxt []int32 // frontier vertex lists (current / next level), capacity n
	arrivals []int32 // vertices with next != 0 during one expansion, capacity n+1
	touched  []int32 // vertices with visited != 0 this batch, capacity n+1

	frontier []uint64 // id-ordering bitmap of SweepClaim's frontier (lazy, all zero between levels)

	// visit, when set (SweepSourcesVisit), streams first-visit events.
	// On a masks-only scratch that skips the O(n·64) row-write traffic
	// entirely (the all-pairs verification consumers); a scratch with
	// rows keeps recording them alongside the callback (the batched
	// table builder reads distances from the rows and uses the events
	// only for next-hop claims).
	visit func(v int32, newBits uint64, level int32)
}

// stripe is one vertex's mask state, 32-byte sized so a random access
// during edge expansion touches exactly one cache line and a single
// bounds check covers all three words.
type stripe struct {
	vis  uint64 // sources that have ever reached the vertex
	next uint64 // sources arriving for the following level
	fro  uint64 // sources whose wavefront sits here this level
	_    uint64 // pad to 32 bytes
}

// NewBitScratch returns a batch-BFS scratch for graphs with up to n
// vertices. Footprint is O(64·n): one mask stripe plus a 64-entry
// distance row per vertex — never O(n²) however many batches run.
func NewBitScratch(n int) *BitScratch {
	s := NewBitScratchMasks(n)
	s.dist = make([]int32, n*64)
	return s
}

// NewBitScratchMasks returns a masks-only scratch: reachability masks
// and streamed first-visit events, but no distance rows (Row must
// not be used). Footprint is O(n) words — the right engine for judge
// passes that test deadlines instead of reading distances back.
func NewBitScratchMasks(n int) *BitScratch {
	return &BitScratch{
		stripes:  make([]stripe, n),
		cur:      make([]int32, 0, n),
		nxt:      make([]int32, 0, n),
		arrivals: make([]int32, 0, n+1),
		touched:  make([]int32, 0, n+1),
	}
}

// oneIfZero returns 1 when x is 0 and 0 otherwise: the branch-free
// length increment of the frontier lists.
func oneIfZero(x uint64) int {
	inc := 0
	if x == 0 {
		inc = 1
	}
	return inc
}

// Begin starts a new batch, clearing only what the previous batch
// touched. (next and frontier are self-cleaning over a completed
// sweep, but seeded batches may be abandoned before sweeping, so the
// whole stripe is re-zeroed here.)
//
//remspan:hotpath
func (s *BitScratch) Begin() {
	for _, v := range s.touched {
		s.stripes[v] = stripe{}
	}
	s.touched = s.touched[:0]
	s.cur = s.cur[:0]
}

// Seed marks source bit i as having reached v at distance d without
// placing v on the frontier: bit i will not expand from v. First seed
// of a (bit, vertex) pair wins; later seeds are ignored.
//
//remspan:hotpath
func (s *BitScratch) Seed(i uint, v int, d int32) {
	b := uint64(1) << i
	st := &s.stripes[v]
	if st.vis&b != 0 {
		return
	}
	if st.vis == 0 {
		s.touched = append(s.touched, int32(v))
	}
	st.vis |= b
	if s.dist != nil {
		s.dist[v<<6|int(i)] = d
	}
}

// SeedFrontier seeds bit i at v with distance d and places it on the
// frontier, so the next Sweep expands it.
//
//remspan:hotpath
func (s *BitScratch) SeedFrontier(i uint, v int, d int32) {
	b := uint64(1) << i
	st := &s.stripes[v]
	if st.vis&b != 0 {
		return
	}
	if st.vis == 0 {
		s.touched = append(s.touched, int32(v))
	}
	st.vis |= b
	if s.dist != nil {
		s.dist[v<<6|int(i)] = d
	}
	if st.fro == 0 {
		s.cur = append(s.cur, int32(v))
	}
	st.fro |= b
}

// Sweep runs the seeded batch to exhaustion over h: vertices first
// reached in the initial expansion are recorded at level, the next
// wave at level+1, and so on.
//
//remspan:hotpath
func (s *BitScratch) Sweep(h *CSR, level int32) {
	for s.Step(h, level) {
		level++
	}
}

// Step expands the current frontier one level over h, collecting
// arrivals at the given level, and returns whether a frontier remains.
// Callers that interleave two traversals (the deadline-lockstep judge
// of spanner verification) drive Step directly; Sweep is the
// run-to-exhaustion loop. Every sweep reads a CSR: its rows are
// sliced straight from one target array, with no interface call per
// frontier vertex.
//
//remspan:hotpath
func (s *BitScratch) Step(h *CSR, level int32) bool {
	if len(s.cur) == 0 {
		return false
	}
	stripes := s.stripes
	arr, k := s.arrivals[:cap(s.arrivals)], 0
	for _, u := range s.cur {
		f := stripes[u].fro
		stripes[u].fro = 0
		for _, v := range h.targets[h.offsets[u]:h.offsets[u+1]] {
			st := &stripes[v]
			old := st.next
			st.next = old | f
			arr[k] = v
			k += oneIfZero(old)
		}
	}
	s.arrivals = arr[:k]
	s.collect(level)
	return len(s.cur) > 0
}

// SweepClaim runs the seeded batch to exhaustion over h like Sweep,
// but with sorted-frontier expansion and a claim callback: at each
// level the frontier is expanded in ascending vertex-id order
// (sortFrontier's bitmap read-back), and claim(x, v, newBits, level)
// fires at the moment source bits first arrive at v through the edge
// (x, v) — x is therefore the smallest-id previous-level neighbor of v
// carrying those bits, which is exactly the canonical next-hop rule of
// the batched forwarding-table builder.
// Each (source, vertex) pair is claimed exactly once. The callback
// runs inside the expansion with x's state hot in cache; it must not
// call back into this BitScratch.
//
//remspan:hotpath
func (s *BitScratch) SweepClaim(h *CSR, level int32, claim func(x, v int32, newBits uint64, level int32)) {
	for s.stepClaim(h, level, claim) {
		level++
	}
}

// stepClaim is Step with sorted-frontier expansion and the first-
// arrival claim callback, with the same branch-free bookkeeping.
//
//remspan:hotpath
func (s *BitScratch) stepClaim(h *CSR, level int32, claim func(x, v int32, newBits uint64, level int32)) bool {
	if len(s.cur) == 0 {
		return false
	}
	s.sortFrontier()
	stripes := s.stripes
	arr, k := s.arrivals[:cap(s.arrivals)], 0
	for _, u := range s.cur {
		f := stripes[u].fro
		stripes[u].fro = 0
		for _, v := range h.targets[h.offsets[u]:h.offsets[u+1]] {
			st := &stripes[v]
			old := st.next
			if newly := f &^ (old | st.vis); newly != 0 {
				claim(u, v, newly, level)
			}
			st.next = old | f
			arr[k] = v
			k += oneIfZero(old)
		}
	}
	s.arrivals = arr[:k]
	s.collect(level)
	return len(s.cur) > 0
}

// sortFrontier sorts s.cur ascending: a comparison sort for short
// frontiers, and for long ones an id-ordered read-back from a frontier
// bitmap — one bit set per frontier vertex, then the words between the
// smallest and the largest id scanned and cleared — so a level costs
// one pass over the frontier plus one over its id span/64 words. The
// bitmap is sized once, so sorted sweeps stay allocation-free when
// warm, and it is all zero again when the read-back ends.
//
//remspan:hotpath
func (s *BitScratch) sortFrontier() {
	a := s.cur
	if len(a) <= 64 {
		slices.Sort(a)
		return
	}
	//remspan:coldpath one-time frontier bitmap grow to the scratch size
	if len(s.frontier) < (len(s.stripes)+63)/64 {
		s.frontier = make([]uint64, (len(s.stripes)+63)/64)
	}
	fb := s.frontier
	lo, hi := a[0], a[0]
	for _, v := range a {
		fb[v>>6] |= 1 << uint(v&63)
		lo, hi = min(lo, v), max(hi, v)
	}
	k := 0
	for w := lo >> 6; w <= hi>>6; w++ {
		for b := fb[w]; b != 0; b &= b - 1 {
			a[k] = w<<6 | int32(bits.TrailingZeros64(b))
			k++
		}
		fb[w] = 0
	}
}

// SetVisit installs (nil clears) the streaming first-visit callback
// consumed by Step/Sweep. A masks-only scratch then records
// reachability alone; a full scratch keeps recording distance rows
// alongside the callback.
func (s *BitScratch) SetVisit(fn func(v int32, newBits uint64, level int32)) { s.visit = fn }

// collect drains the arrival masks into the next frontier, recording
// first-visit distances for newly set bits (or streaming them to the
// visit callback when one is installed), and makes the next frontier
// current.
//
//remspan:hotpath
func (s *BitScratch) collect(level int32) {
	if s.dist == nil && s.visit == nil {
		s.collectMasks()
		return
	}
	stripes := s.stripes
	nxt := s.nxt[:0]
	for _, v := range s.arrivals {
		st := &stripes[v]
		newBits := st.next &^ st.vis
		st.next = 0
		if newBits == 0 {
			continue
		}
		if st.vis == 0 {
			s.touched = append(s.touched, v)
		}
		st.vis |= newBits
		st.fro = newBits
		if s.dist != nil {
			base := int(v) << 6
			for b := newBits; b != 0; b &= b - 1 {
				s.dist[base+bits.TrailingZeros64(b)] = level
			}
		}
		if s.visit != nil {
			s.visit(v, newBits, level)
		}
		nxt = append(nxt, v)
	}
	s.cur, s.nxt = nxt, s.cur
}

// collectMasks is collect on a masks-only scratch with no visit
// callback (the judge's H-sweep, the table builder's claim sweep),
// with branch-free list bookkeeping: every arrival is written into the
// next frontier and touched, and each length advances only when the
// vertex gains bits or is first reached. An arrival whose bits all
// arrived earlier gets fro = 0, which it already has (Step cleared the
// frontier's fro before expanding).
//
//remspan:hotpath
func (s *BitScratch) collectMasks() {
	stripes := s.stripes
	nxt, k := s.nxt[:cap(s.nxt)], 0
	touched, t := s.touched[:cap(s.touched)], len(s.touched)
	for _, v := range s.arrivals {
		st := &stripes[v]
		vis := st.vis
		newBits := st.next &^ vis
		st.next = 0
		st.vis = vis | newBits
		st.fro = newBits
		nxt[k] = v
		k += 1 - oneIfZero(newBits)
		touched[t] = v
		t += oneIfZero(vis) // an arrival with vis == 0 always gains bits
	}
	s.touched = touched[:t]
	s.cur, s.nxt = nxt[:k], s.cur
}

// SweepSourcesVisit runs a plain batched BFS over c from the given
// sources (1 ≤ len ≤ 64), bit i owning sources[i]. visit, when not nil,
// is called once per (vertex, new source bits, distance) first-visit
// event, in level order. On a masks-only scratch no distance rows exist
// — after the sweep only Visited is meaningful, not Row. The sources
// themselves (distance 0) are not reported. The callback runs inside
// the sweep's collect phase: it must not call back into this
// BitScratch.
//
//remspan:hotpath
func (s *BitScratch) SweepSourcesVisit(c *CSR, sources []int32, visit func(v int32, newBits uint64, level int32)) {
	s.Begin()
	for i, u := range sources {
		s.SeedFrontier(uint(i), int(u), 0)
	}
	s.SetVisit(visit)
	s.Sweep(c, 1)
	s.SetVisit(nil)
}

// Visited returns the mask of sources that reached v; bit i's distance
// is valid iff its bit is set.
func (s *BitScratch) Visited(v int) uint64 { return s.stripes[v].vis }

// Row returns v's 64-entry distance row, indexed by source bit and
// valid only under Visited(v). Shared scratch — read-only, valid until
// the next Begin.
func (s *BitScratch) Row(v int) []int32 { return s.dist[v<<6 : v<<6+64] }

// ballBudget caps the vertices one clustering ball may traverse while
// hunting for unassigned sources, so pathological inputs (a nearly
// consumed region that must be re-walked) cannot push Order past
// O(budget · n/64): the ball simply closes early and the batch ships
// with fewer than 64 sources, which the engine accepts.
const ballBudget = 4096

// BatchOrderScratch is the pooled working state of Order, for call
// sites that re-cluster per run (the verification and routing
// fan-outs): its zero value is ready to use, and a warm scratch orders
// any number of views with zero allocations. Not safe for concurrent
// use.
type BatchOrderScratch struct {
	order, starts []int32
	queue         []int32
	assignedMark  []uint32 // == callEpoch ⇔ vertex already assigned this call
	mark          []uint32 // per-ball visit stamps
	epoch         uint32
}

// Order partitions the vertices into batches of up to 64 mutually
// close sources for the word-parallel engine: order is a permutation
// of 0..n-1 and starts[b]:starts[b+1] slices it into batches. Batch
// cost in a bit-packed sweep is O(edges × distinct wavefront levels) —
// a vertex re-expands once per distinct source distance — so 64
// scattered sources (anything up to graph diameter apart) can cost
// 64× more than 64 sources drawn from one small BFS ball, whose
// wavefronts coincide to within the ball's diameter. Balls grow from
// the smallest unassigned vertex, collecting unassigned vertices in
// BFS discovery order; exhausted components spill into the same batch
// so fragmented graphs still fill words. Deterministic: same view,
// same partition. The returned slices are scratch-owned and valid
// until the next Order call; arrays grow to the largest view seen.
func (s *BatchOrderScratch) Order(view View) (order, starts []int32) {
	n := view.N()
	//remspan:coldpath stamp arrays grow to the largest view seen, then are reused
	if cap(s.assignedMark) < n {
		s.assignedMark = make([]uint32, n)
		s.mark = make([]uint32, n)
	}
	assignedMark, mark := s.assignedMark[:n], s.mark[:n]
	// One call consumes 1 + #balls ≤ n+1 epochs; rewind with headroom
	// at a call boundary, where no stamps are live.
	if s.epoch >= 1<<31 || s.epoch+uint32(n)+2 < s.epoch {
		clear(s.assignedMark)
		clear(s.mark)
		s.epoch = 0
	}
	s.epoch++
	callEpoch := s.epoch
	s.order = s.order[:0]
	s.starts = append(s.starts[:0], 0)
	queue := s.queue
	seed := 0
	for len(s.order) < n {
		filled := 0
		for filled < 64 && seed < n {
			for seed < n && assignedMark[seed] == callEpoch {
				seed++
			}
			if seed >= n {
				break
			}
			// One ball: BFS from seed, assigning unassigned vertices as
			// they are discovered.
			s.epoch++
			queue = append(queue[:0], int32(seed))
			mark[seed] = s.epoch
			budget := ballBudget
			for head := 0; head < len(queue); head++ {
				u := queue[head]
				if assignedMark[u] != callEpoch {
					assignedMark[u] = callEpoch
					s.order = append(s.order, u)
					if filled++; filled == 64 {
						break
					}
				}
				if budget--; budget <= 0 {
					break
				}
				for _, w := range view.Neighbors(int(u)) {
					if mark[w] != s.epoch {
						mark[w] = s.epoch
						queue = append(queue, w)
					}
				}
			}
			if filled < 64 && budget <= 0 {
				break // ship a short batch rather than re-walk the region
			}
		}
		s.starts = append(s.starts, int32(len(s.order)))
	}
	s.queue = queue
	return s.order, s.starts
}
