package domtree

import (
	"fmt"

	"remspan/internal/graph"
)

// Determinism contract: every greedy selection picks the candidate
// maximizing the current gain, breaking ties by smallest vertex label —
// i.e. selection order is (gain desc, label asc); every other order
// (MISCSR's (dist, label), KMISCSR's smallest label first) is by label
// too, and rows are scanned in their stored order. A vertex's label is
// its id unless the scratch carries labels (Scratch.SetLabels): the
// batch sweep runs on a locality-permuted snapshot labelled by the
// original ids, whose rows keep the original neighbour order, and
// gets every tree of the original snapshot back bit-for-bit. The lazy
// heap preserves this order: gains only decrease, so when a popped
// heap entry's recomputed gain equals its key, every other candidate's
// true gain is bounded by its own key ≤ that key, and equal keys pop
// in label order. Any change to this tie-break is a breaking change to
// the constructed edge sets and must update these builders, the
// reference builders and the equivalence tests together.

// KGreedyCSR computes Algorithm 4 DomTreeGdy(2, 0, k) for root u: a
// k-connecting (2, 0)-dominating tree (a depth-1 star of multipoint
// relays). The greedy multicover heuristic picks, at each step, the
// neighbor of u covering the most distance-2 vertices that are still
// uncovered; a vertex v leaves S once it has k relay neighbors or all
// of N(v) ∩ N(u) has been selected. Within 1+log Δ of the optimal
// k-cover (Prop. 6). For k = 1 this is exactly OLSR multipoint-relay
// selection, and the union of these trees over all roots is a
// (1, 0)-remote-spanner (Prop. 5).
//
// Greedy selection uses the lazy heap (candidate gains only decrease,
// so a possibly-stale max-heap pops the true argmax after a few
// refreshes), preserving the (gain desc, label asc) tie-break.
//
//remspan:hotpath
func KGreedyCSR(c graph.View, s *Scratch, u, k int) *graph.Tree {
	if k < 1 {
		panic("domtree: KGreedyCSR requires k >= 1")
	}
	s = ensure(s, c.N())
	t := s.tree(u)
	nu := c.Neighbors(u)

	// Stamp N(u) ∪ {u} so the wedge scan below tests adjacency-to-root
	// in O(1) instead of a binary search per wedge.
	isNbr := s.stampA
	eN := s.nextEpoch()
	isNbr[u] = eN
	for _, w := range nu {
		isNbr[w] = eN
	}

	// S: vertices at distance exactly 2 from u. The wedge scan counts
	// each common neighbor w of (u, v) exactly once, so cnt2 ends as
	// commonLeft[v] = |N(u) ∩ N(v)| with no merge allocations.
	inS := s.stampB
	eS := s.nextEpoch()
	remaining := 0
	hits, commonLeft := s.cnt1, s.cnt2
	for _, w := range nu {
		for _, v := range c.Neighbors(int(w)) {
			if isNbr[v] == eN {
				continue
			}
			if inS[v] != eS {
				inS[v] = eS
				hits[v] = 0
				commonLeft[v] = 0
				remaining++
			}
			commonLeft[v]++
		}
	}
	if remaining == 0 {
		return t
	}

	// gain(x) = |N(x) ∩ S| over the still-uncovered S.
	trueGain := func(x int32) int32 {
		g := int32(0)
		for _, v := range c.Neighbors(int(x)) {
			if inS[v] == eS {
				g++
			}
		}
		return g
	}

	h := &s.heap
	h.reset()
	for _, x := range nu {
		h.items = append(h.items, gainItem{id: x, key: s.lab(x), gain: trueGain(x)})
	}
	h.initHeap()

	for remaining > 0 {
		if len(h.items) == 0 {
			panic(fmt.Sprintf("domtree: k-cover stuck at root %d (|S|=%d)", u, remaining))
		}
		top := h.pop()
		fresh := trueGain(top.id)
		if fresh != top.gain {
			if fresh > 0 {
				top.gain = fresh
				h.push(top)
			}
			continue
		}
		if fresh == 0 {
			continue
		}
		best := top.id
		t.Add(int(best), u)
		for _, v := range c.Neighbors(int(best)) {
			if inS[v] != eS {
				continue
			}
			hits[v]++
			commonLeft[v]--
			if hits[v] >= int32(k) || commonLeft[v] == 0 {
				inS[v] = 0 // leaves S
				remaining--
			}
		}
	}
	return t
}

// MISCSR computes Algorithm 2 DomTreeMIS(r, 1) for root u: an
// (r, 1)-dominating tree obtained by greedily building a maximal
// independent set of B_G(u, r) \ B_G(u, 1) in order of increasing
// distance from u (ties by smallest label), attaching each MIS point
// via its BFS shortest path. In a unit-ball graph of a metric with
// doubling dimension p the tree has O(r^{p+1}) edges (Prop. 3).
//
//remspan:hotpath
func MISCSR(c graph.View, s *Scratch, u, r int) *graph.Tree {
	if r < 2 {
		panic("domtree: MISCSR requires r >= 2")
	}
	s = ensure(s, c.N())
	dist, parent, visited := s.bfs.BoundedView(c, u, r)
	t := s.tree(u)

	// B = vertices with 2 <= dist <= r, processed by (dist, label).
	// Dense balls (the all-roots sweep on a connected graph) use a
	// counting-bucket placement — count the ball per distance, then
	// scan the vertices in increasing label into the distance segments,
	// O(n + |ball|) and comparison-free. Small balls instead sort each
	// equal-distance run of the BFS order (already grouped by
	// distance) by label, keeping the per-root cost
	// O(|ball| log |ball|) independent of n. Both produce the same
	// (dist, label) order.
	var b []int32
	if ballDense := 4*len(visited) >= c.N(); ballDense {
		counts := s.buf2
		//remspan:coldpath grow to the radius high-water mark, then reused
		if cap(counts) < r+1 {
			counts = make([]int32, r+1)
		} else {
			counts = counts[:r+1]
		}
		s.buf2 = counts
		for i := range counts {
			counts[i] = 0
		}
		total := 0
		for _, v := range visited {
			if dist[v] >= 2 {
				counts[dist[v]]++
				total++
			}
		}
		//remspan:coldpath grow to the ball-size high-water mark, then reused
		if cap(s.buf1) < total {
			s.buf1 = make([]int32, total)
		}
		b = s.buf1[:total]
		start := int32(0)
		for d := 2; d <= r; d++ {
			cd := counts[d]
			counts[d] = start
			start += cd
		}
		for l := int32(0); l < int32(c.N()); l++ {
			v := l
			if s.byLabel != nil {
				v = s.byLabel[l]
			}
			if d := dist[v]; d >= 2 {
				b[counts[d]] = v
				counts[d]++
			}
		}
	} else {
		b = s.buf1[:0]
		for _, v := range visited {
			if dist[v] >= 2 {
				b = append(b, v)
			}
		}
		s.buf1 = b
		for i := 0; i < len(b); {
			j := i + 1
			for j < len(b) && dist[b[j]] == dist[b[i]] {
				j++
			}
			s.sortByLabel(b[i:j])
			i = j
		}
	}

	removed := s.stampA
	eR := s.nextEpoch()
	for _, x := range b {
		if removed[x] == eR {
			continue
		}
		t.AddPath(parent, int(x))
		removed[x] = eR
		for _, w := range c.Neighbors(int(x)) {
			removed[w] = eR
		}
	}
	return t
}

// GreedyCSR computes Algorithm 1 DomTreeGdy(r, β) for root u: an
// (r, β)-dominating tree built by solving, for each ring r' = 2..r, a
// greedy set cover of the vertices at distance r' with the balls of
// candidates in distance range [r'−1, r'−1+β]. Paths are attached
// along a shared BFS tree, keeping d_T(u, x) = d_G(u, x). β must be 0
// or 1 (the only values the paper uses); r ≥ 2.
//
// Each ring's set cover runs on the lazy heap, avoiding the O(|X|²)
// candidate rescan of the eager greedy while preserving its
// (gain desc, label asc) selection order exactly (see the determinism
// contract above).
//
//remspan:hotpath
func GreedyCSR(c graph.View, s *Scratch, u, r, beta int) *graph.Tree {
	if r < 2 {
		panic("domtree: GreedyCSR requires r >= 2")
	}
	if beta != 0 && beta != 1 {
		panic("domtree: GreedyCSR requires beta in {0, 1}")
	}
	s = ensure(s, c.N())
	radius := r - 1 + beta
	if r > radius {
		radius = r
	}
	dist, parent, visited := s.bfs.BoundedView(c, u, radius)
	t := s.tree(u)

	for rp := 2; rp <= r; rp++ {
		// S: vertices at distance exactly rp (stamped; covering rewinds
		// the stamp). X: candidates at distance in [rp-1, rp-1+beta].
		lo, hi := int32(rp-1), int32(rp-1+beta)
		inS := s.stampA
		eS := s.nextEpoch()
		remaining := 0
		x := s.buf1[:0]
		for _, v := range visited {
			if dist[v] == int32(rp) {
				inS[v] = eS
				remaining++
			}
			if dist[v] >= lo && dist[v] <= hi {
				x = append(x, v)
			}
		}
		s.buf1 = x
		if remaining == 0 {
			continue
		}
		// gain(cand) = |B_G(cand, 1) ∩ S_uncovered|.
		gain := func(cand int32) int32 {
			g := int32(0)
			if inS[cand] == eS {
				g++
			}
			for _, w := range c.Neighbors(int(cand)) {
				if inS[w] == eS {
					g++
				}
			}
			return g
		}
		h := &s.heap
		h.reset()
		for _, cand := range x {
			h.items = append(h.items, gainItem{id: cand, key: s.lab(cand), gain: gain(cand)})
		}
		h.initHeap()
		for remaining > 0 {
			if len(h.items) == 0 {
				panic(fmt.Sprintf("domtree: greedy cover stuck at ring %d of root %d", rp, u))
			}
			top := h.pop()
			fresh := gain(top.id)
			if fresh != top.gain {
				if fresh > 0 {
					top.gain = fresh
					h.push(top)
				}
				continue
			}
			if fresh == 0 {
				panic(fmt.Sprintf("domtree: greedy cover stuck at ring %d of root %d", rp, u))
			}
			best := top.id
			t.AddPath(parent, int(best))
			if inS[best] == eS {
				inS[best] = 0
				remaining--
			}
			for _, w := range c.Neighbors(int(best)) {
				if inS[w] == eS {
					inS[w] = 0
					remaining--
				}
			}
		}
	}
	return t
}

// KMISCSR computes Algorithm 5 DomTreeMIS(2, 1, k) for root u: a
// k-connecting (2, 1)-dominating tree. It runs k rounds; each round
// greedily picks an independent set of still-uncovered distance-2
// vertices (smallest label first) and attaches each pick x through a
// fresh common neighbor y1 (path u–y1–x) plus up to k−1 further fresh
// common neighbors as direct children of u. A vertex v leaves S once its
// common neighborhood with u is exhausted into V(T) or it sees k
// branch-disjoint tree neighbors within depth 2. In a unit-ball graph
// of a doubling metric the tree has O(k²) edges (Prop. 7); with k = 2,
// unions of these trees form 2-connecting (2,−1)-remote-spanners
// (Prop. 4, Th. 3).
//
//remspan:hotpath
func KMISCSR(c graph.View, s *Scratch, u, k int) *graph.Tree {
	if k < 1 {
		panic("domtree: KMISCSR requires k >= 1")
	}
	s = ensure(s, c.N())
	t := s.tree(u)

	isNbr := s.stampA
	eN := s.nextEpoch()
	isNbr[u] = eN
	for _, w := range c.Neighbors(u) {
		isNbr[w] = eN
	}

	// S: vertices at distance exactly 2 from u, with
	// commonLeft[v] = |N(u) ∩ N(v)| counted by the wedge scan.
	inS := s.stampB
	eS := s.nextEpoch()
	commonLeft := s.cnt2
	nS := 0
	sList := s.buf1[:0]
	for _, w := range c.Neighbors(u) {
		for _, v := range c.Neighbors(int(w)) {
			if isNbr[v] == eN {
				continue
			}
			if inS[v] != eS {
				inS[v] = eS
				commonLeft[v] = 0
				nS++
				sList = append(sList, v)
			}
			commonLeft[v]++
		}
	}
	s.buf1 = sList

	covered := func(v int32) bool {
		return commonLeft[v] == 0 || s.disjointWitnesses(c, t, int(v), 2) >= k
	}
	noteTreeMember := func(y int32) {
		for _, v := range c.Neighbors(int(y)) {
			if inS[v] == eS {
				commonLeft[v]--
			}
		}
	}

	for round := 0; round < k && nS > 0; round++ {
		// X := S (snapshot), processed in increasing label.
		order := s.buf2[:0]
		for _, v := range sList {
			if inS[v] == eS {
				order = append(order, v)
			}
		}
		s.buf2 = order
		s.sortByLabel(order)
		inX := s.stampC
		eX := s.nextEpoch()
		for _, v := range order {
			inX[v] = eX
		}

		for nS > 0 {
			// Pick the smallest-label x in S ∩ X.
			x := int32(-1)
			for _, v := range order {
				if inX[v] == eX && inS[v] == eS {
					x = v
					break
				}
			}
			if x == -1 {
				break
			}
			// Fresh common neighbors of x and u, in increasing label
			// (N(x) is ascending in label, matching g.CommonNeighbors
			// order).
			fresh := s.buf3[:0]
			for _, y := range c.Neighbors(int(x)) {
				if isNbr[y] == eN && !t.Contains(int(y)) {
					fresh = append(fresh, y)
				}
			}
			s.buf3 = fresh
			cnt := k
			if len(fresh) < cnt {
				cnt = len(fresh)
			}
			// x ∈ S implies commonLeft[x] > 0, so cnt >= 1 (Prop. 7
			// termination argument); attach u–y1–x then u–y2.. u–yc.
			affected := s.buf4[:0]
			y1 := fresh[0]
			t.Add(int(y1), u)
			noteTreeMember(y1)
			t.Add(int(x), int(y1))
			affected = append(affected, c.Neighbors(int(y1))...)
			affected = append(affected, c.Neighbors(int(x))...)
			for i := 1; i < cnt; i++ {
				t.Add(int(fresh[i]), u)
				noteTreeMember(fresh[i])
				affected = append(affected, c.Neighbors(int(fresh[i]))...)
			}
			s.buf4 = affected
			// Coverage can only have changed for S-vertices adjacent to
			// a newly added tree node.
			for _, v := range affected {
				if inS[v] == eS && covered(v) {
					inS[v] = 0
					nS--
				}
			}
			// X := X \ B_G(x, 1).
			inX[x] = 0
			for _, w := range c.Neighbors(int(x)) {
				inX[w] = 0
			}
		}
	}
	return t
}
