package graph

import (
	"math/rand"
	"slices"
	"testing"

	"remspan/internal/testutil"
)

func TestEdgeSetBasic(t *testing.T) {
	s := NewEdgeSet(5, [][2]int32{{1, 2}, {2, 1}, {3, 3}})
	if !s.Has(2, 1) || !s.Has(1, 2) || s.Has(0, 1) || s.Has(3, 3) {
		t.Fatal("Has wrong")
	}
	if s.Len() != 1 {
		t.Fatalf("len=%d, want 1 (reversed duplicate and self loop dropped)", s.Len())
	}
	if e := NewEdgeSet(5, nil); e.Len() != 0 || e.Graph().N() != 5 || e.Graph().M() != 0 {
		t.Fatal("empty set wrong")
	}
}

func TestEdgeSetRejectsOutOfRange(t *testing.T) {
	for _, e := range [][2]int32{{0, 5}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("edge %v over 5 vertices accepted", e)
				}
			}()
			NewEdgeSet(5, [][2]int32{e})
		}()
	}
}

func TestEdgeSetGraphRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := New(20)
	for i := 0; i < 60; i++ {
		u, v := rng.Intn(20), rng.Intn(20)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	s := NewEdgeSet(20, g.Edges())
	if s.Len() != g.M() {
		t.Fatalf("edge set len %d != m %d", s.Len(), g.M())
	}
	if h := s.Graph(); h.N() != g.N() || !slices.Equal(h.Edges(), g.Edges()) {
		t.Fatal("round trip lost edges")
	}
}

func TestEdgeSetEdgesSorted(t *testing.T) {
	s := NewEdgeSet(5, [][2]int32{{3, 4}, {2, 0}, {0, 1}})
	es := s.Edges()
	want := [][2]int32{{0, 1}, {0, 2}, {3, 4}}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("edges = %v", es)
		}
	}
}

func TestEdgeSetFromTree(t *testing.T) {
	g := pathGraph(4)
	parent, _ := BFSTree(g, 0)
	tr := NewTree(4, 0)
	tr.AddPath(parent, 3)
	s := NewEdgeSet(4, tr.Edges())
	if s.Len() != 3 || !s.Has(0, 1) || !s.Has(1, 2) || !s.Has(2, 3) {
		t.Fatalf("tree edges missing: %v", s.Edges())
	}
}

func TestEdgeSetEqual(t *testing.T) {
	a, b := NewEdgeSet(6, nil), NewEdgeSet(6, nil)
	if !a.Equal(b) {
		t.Fatal("empty sets must be equal")
	}
	a = NewEdgeSet(6, [][2]int32{{1, 2}, {3, 4}})
	b = NewEdgeSet(6, [][2]int32{{4, 3}, {2, 1}}) // canonicalized
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("identical sets reported unequal")
	}
	b = NewEdgeSet(6, [][2]int32{{4, 3}, {2, 1}, {0, 5}})
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("different sizes reported equal")
	}
	a = NewEdgeSet(6, [][2]int32{{1, 2}, {3, 4}, {0, 4}}) // same size, different edge
	if a.Equal(b) {
		t.Fatal("same-size different sets reported equal")
	}
}

// randomLists returns up to seven edge lists over n vertices, empty
// ones included, whose pairs come in both orientations, repeat within
// and across lists, and include self loops.
func randomLists(n int, rng *rand.Rand) [][][2]int32 {
	lists := make([][][2]int32, rng.Intn(8))
	for i := range lists {
		if n == 0 || rng.Intn(4) == 0 {
			continue
		}
		for j := rng.Intn(3 * n); j >= 0; j-- {
			e := [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
			switch k := len(lists[i]); {
			case k > 0 && rng.Intn(4) == 0: // repeat, reversed
				e = [2]int32{lists[i][k-1][1], lists[i][k-1][0]}
			case i > 0 && len(lists[i-1]) > 0 && rng.Intn(4) == 0: // repeat across lists
				e = lists[i-1][rng.Intn(len(lists[i-1]))]
			case rng.Intn(8) == 0:
				e[1] = e[0]
			}
			lists[i] = append(lists[i], e)
		}
	}
	return lists
}

// TestUnionScratchMatchesEdgeSet pins the in-place union against
// NewEdgeSet(n, lists...).Graph() and against a Graph built edge by
// edge, on random lists (repeats, both orientations, self loops, empty
// lists) and on n = 0. One scratch serves every trial, and larger
// unions precede smaller ones, so a row or key surviving an earlier
// rebuild fails. Warm, a rebuild allocates nothing.
func TestUnionScratchMatchesEdgeSet(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var u UnionScratch
	for trial, n := range []int{60, 0, 40, 1, 9, 60, 25, 2, 120, 3} {
		lists := randomLists(n, rng)
		want := New(n)
		for _, l := range lists {
			for _, e := range l {
				want.AddEdge(int(e[0]), int(e[1]))
			}
		}
		set := NewEdgeSet(n, lists...).Graph()
		got := u.CSR(n, lists...)
		if got.N() != n || got.M() != want.M() || set.M() != want.M() {
			t.Fatalf("trial %d (n=%d): union n=%d m=%d, edge set m=%d, want m=%d",
				trial, n, got.N(), got.M(), set.M(), want.M())
		}
		for v := 0; v < n; v++ {
			if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) || !slices.Equal(set.Neighbors(v), want.Neighbors(v)) {
				t.Fatalf("trial %d (n=%d): row %d: union %v, edge set %v, want %v",
					trial, n, v, got.Neighbors(v), set.Neighbors(v), want.Neighbors(v))
			}
		}
	}
	lists := randomLists(120, rng)
	testutil.PinAllocs(t, "warm union rebuild", 10, func() {
		u.CSR(120, lists...)
	})
}
