package graph

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestEdgeMarksEdgeSetMatchesNewEdgeSet pins the one-pass conversion
// (keys read off CSR slot order) against the sort-and-compact
// constructor over the same marked pairs: random subsets of a random
// graph's edges, in both orientations and with repeats, split over two
// accumulators that are then unioned.
func TestEdgeMarksEdgeSetMatchesNewEdgeSet(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(60)
		g := New(n)
		for i := 0; i < 3*n; i++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				g.AddEdge(u, v)
			}
		}
		c := NewCSR(g)
		a, b := NewEdgeMarks(c), NewEdgeMarks(c)
		var pairs [][2]int32
		for _, e := range g.Edges() {
			for r := rng.Intn(3); r > 0; r-- {
				if rng.Intn(2) == 0 {
					e[0], e[1] = e[1], e[0]
				}
				pairs = append(pairs, e)
				if rng.Intn(2) == 0 {
					a.Add(int(e[0]), int(e[1]))
				} else {
					b.Add(int(e[0]), int(e[1]))
				}
			}
		}
		a.Union(b)
		want := NewEdgeSet(n, pairs)
		got := a.EdgeSet()
		if !got.Equal(want) || got.Len() != a.count || !slices.Equal(got.Graph().Edges(), want.Graph().Edges()) {
			t.Fatalf("trial %d: marks give %d edges %v, NewEdgeSet %d edges %v",
				trial, got.Len(), got.Edges(), want.Len(), want.Edges())
		}
	}
}

// TestEdgeMarksAddAbsentEdgePanics pins Add's contract: an edge that
// is not in the snapshot panics, whether its far endpoint lies past
// the row's last neighbor or between two of them; a self loop is
// ignored.
func TestEdgeMarksAddAbsentEdgePanics(t *testing.T) {
	g := FromEdges(5, [][2]int{{0, 1}, {0, 3}, {1, 2}})
	m := NewEdgeMarks(NewCSR(g))
	m.Add(2, 2)
	if m.count != 0 {
		t.Fatal("self loop marked")
	}
	for _, e := range [][2]int{{0, 4}, {2, 0}, {3, 4}} {
		func() {
			defer func() {
				r := recover()
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "absent from the snapshot") {
					t.Errorf("Add(%d, %d): panic %v, want the absent-edge panic", e[0], e[1], r)
				}
			}()
			m.Add(e[0], e[1])
		}()
	}
}

// TestEdgeMarksUnionPermuted pins the relabeled path of the
// construction union: edges marked on a PermuteInto copy labelled by
// the original ids, in both orientations and split over two
// accumulators that are unioned on the copy, map back through
// UnionPermuted to the same EdgeSet as the original pairs. One pair of
// accumulators is rebound across the trials, through an empty snapshot
// before each, so a mark left past a shorter binding would show up in
// a later one.
func TestEdgeMarksUnionPermuted(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var a, b EdgeMarks
	var p CSR
	empty := NewCSR(New(0))
	for trial := 0; trial < 20; trial++ {
		a.Bind(empty, nil)
		b.Bind(empty, nil)
		n := 2 + rng.Intn(60)
		g := New(n)
		for i := 0; i < 3*n; i++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				g.AddEdge(u, v)
			}
		}
		order, rank := make([]int32, n), make([]int32, n)
		for i, u := range rng.Perm(n) {
			order[i], rank[u] = int32(u), int32(i)
		}
		c := NewCSR(g)
		c.PermuteInto(&p, order, rank)
		a.Bind(&p, order)
		b.Bind(&p, order)
		var pairs [][2]int32
		for _, e := range g.Edges() {
			if rng.Intn(3) == 0 {
				continue
			}
			pairs = append(pairs, e)
			u, v := int(rank[e[0]]), int(rank[e[1]])
			if rng.Intn(2) == 0 {
				u, v = v, u
			}
			if rng.Intn(2) == 0 {
				a.Add(u, v)
			} else {
				b.Add(u, v)
			}
		}
		a.Union(&b)
		m := NewEdgeMarks(c)
		m.UnionPermuted(&a)
		want := NewEdgeSet(n, pairs)
		if got := m.EdgeSet(); !got.Equal(want) || got.Len() != m.count || a.count != m.count {
			t.Fatalf("trial %d: permuted marks give %d edges %v (copy count %d), want %d edges %v",
				trial, got.Len(), got.Edges(), a.count, want.Len(), want.Edges())
		}
	}
}
