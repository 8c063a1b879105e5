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
