package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// TestVertexSet pins the bitmap set: after any mix of Reset and Add,
// with repeats and reads between them, Sorted lists exactly the added
// ids, ascending and without repeats. The members come from bounded
// sweeps, as the dirty-root union's do, interleaved with sweeps that
// are not added. n = 130 is not a multiple of 64, so the bitmap's last
// word is partial, and ids 63 and 64 straddle a word boundary.
func TestVertexSet(t *testing.T) {
	const n = 130
	rng := rand.New(rand.NewSource(7))
	g := New(n)
	for i := 0; i < 160; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	var s VertexSet
	check := func(what string, want []bool) {
		t.Helper()
		var exp []int32
		for v, in := range want {
			if in {
				exp = append(exp, int32(v))
			}
		}
		if got := s.Sorted(); !slices.Equal(got, exp) {
			t.Fatalf("%s: set %v, want %v", what, got, exp)
		}
	}
	sc := NewBFSScratch(n)
	for round := 0; round < 20; round++ {
		s.Reset(n)
		if round%5 == 0 {
			s.Reset(n) // resetting twice is still one empty set
		}
		want := make([]bool, n)
		check("empty set", want)
		for sweep := 0; sweep < 1+rng.Intn(4); sweep++ {
			_, _, visited := sc.BoundedView(g, rng.Intn(n), rng.Intn(3))
			for _, v := range visited {
				s.Add(v)
				s.Add(v) // a repeat is one member
				want[v] = true
			}
			check("after a sweep", want)
			check("read twice", want)
			sc.BoundedView(g, rng.Intn(n), 2) // a sweep that is not added
		}
		check("after interleaved sweeps", want)
	}
	for _, ids := range [][]int32{{64, 63}, {64}, {63}, {n - 1}, {n - 1, 0}} {
		s.Reset(n)
		want := make([]bool, n)
		for _, v := range ids {
			s.Add(v)
			want[v] = true
		}
		check("ids at word edges", want)
	}
}
