package graph

import "math/bits"

// VertexSet is a set of vertex ids kept as a bitmap and read back in
// ascending order: adding a member sets one bit, and Sorted scans only
// the words between the smallest and the largest member, so neither
// accumulation nor read-back sorts. The zero value is an empty set;
// Reset sizes it before the first Add.
type VertexSet struct {
	bits   []uint64
	lo, hi int     // words [lo, hi) may hold members
	list   []int32 // Sorted's read-back, current unless stale
	stale  bool
}

// Reset empties the set and sizes it for ids in [0, n). Only the words
// members touched are cleared.
//
//remspan:hotpath
func (s *VertexSet) Reset(n int) {
	if words := (n + 63) / 64; len(s.bits) < words {
		s.bits = make([]uint64, words) //remspan:coldpath the bitmap is sized once, to the graph
	} else if s.lo < s.hi {
		clear(s.bits[s.lo:s.hi])
	}
	s.lo, s.hi = len(s.bits), 0
	s.list = s.list[:0]
	s.stale = false
}

// Add inserts v, which must be below Reset's n.
//
//remspan:hotpath
func (s *VertexSet) Add(v int32) {
	w := int(v >> 6)
	s.bits[w] |= 1 << uint(v&63)
	s.lo, s.hi = min(s.lo, w), max(s.hi, w+1)
	s.stale = true
}

// Sorted returns the members in ascending order. The slice is
// set-owned and valid until the next Add or Reset; repeated calls
// without an Add between them return it without a rescan.
//
//remspan:hotpath
func (s *VertexSet) Sorted() []int32 {
	if s.stale {
		s.list = s.list[:0]
		for w := s.lo; w < s.hi; w++ {
			for b := s.bits[w]; b != 0; b &= b - 1 {
				s.list = append(s.list, int32(w<<6|bits.TrailingZeros64(b)))
			}
		}
		s.stale = false
	}
	return s.list
}
