package graph

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzReadEdgeList ensures the parser never panics and that anything it
// accepts round-trips through WriteEdgeList.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("3 2\n0 1\n1 2\n")
	f.Add("0 0\n")
	f.Add("5 1\n4 0\n")
	f.Add("2 1\n0 1\n0 1\n")
	f.Add("1 0")
	f.Add("-3 -7\n")
	f.Add("3 2\n0 1\n")
	f.Add("huge nonsense")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("reparse of own output: %v", err)
		}
		if g.N() != g2.N() || !slices.Equal(g.Edges(), g2.Edges()) {
			t.Fatal("round trip changed the graph")
		}
	})
}

// FuzzEdgeSetKeys is a differential fuzz of NewEdgeSet against a map
// of canonical pairs built here: the input bytes become an edge list
// over n ≤ 64 vertices, duplicates, both orientations and self loops
// included, and every query of the set must agree with the map — Len,
// Has over all pairs and outside the range, the order of Edges, the
// sorted rows and M of Graph, and Equal against a reversed list and a
// list missing one edge.
func FuzzEdgeSetKeys(f *testing.F) {
	f.Add(uint8(5), []byte{1, 2, 2, 1, 3, 3, 0, 4, 1, 2, 4, 0})
	f.Add(uint8(0), []byte{0, 0})
	f.Add(uint8(63), []byte{63, 0, 0, 63, 62, 63, 10, 11, 11, 10})
	f.Fuzz(func(t *testing.T, nb uint8, raw []byte) {
		n := int(nb)%64 + 1
		edges := make([][2]int32, 0, len(raw)/2)
		want := make(map[[2]int32]bool)
		for i := 0; i+1 < len(raw); i += 2 {
			u, v := int32(int(raw[i])%n), int32(int(raw[i+1])%n)
			edges = append(edges, [2]int32{u, v})
			if u > v {
				u, v = v, u
			}
			if u != v {
				want[[2]int32{u, v}] = true
			}
		}
		s := NewEdgeSet(n, edges)
		if s.Len() != len(want) {
			t.Fatalf("Len %d, want %d", s.Len(), len(want))
		}
		for u := -1; u <= n; u++ {
			for v := -1; v <= n; v++ {
				a, b := u, v
				if a > b {
					a, b = b, a
				}
				in := a >= 0 && b < n && want[[2]int32{int32(a), int32(b)}]
				if s.Has(u, v) != in {
					t.Fatalf("Has(%d, %d) = %v, want %v", u, v, !in, in)
				}
			}
		}
		es := s.Edges()
		if len(es) != len(want) {
			t.Fatalf("Edges has %d pairs, want %d", len(es), len(want))
		}
		for i, e := range es {
			if e[0] >= e[1] || !want[e] {
				t.Fatalf("Edges[%d] = %v: not a canonical member", i, e)
			}
			if i > 0 && (es[i-1][0] > e[0] || es[i-1][0] == e[0] && es[i-1][1] >= e[1]) {
				t.Fatalf("Edges out of order at %d: %v then %v", i, es[i-1], e)
			}
		}
		g := s.Graph()
		if g.N() != n || g.M() != len(want) {
			t.Fatalf("Graph has n=%d m=%d, want n=%d m=%d", g.N(), g.M(), n, len(want))
		}
		deg := 0
		for u := 0; u < n; u++ {
			row := g.Neighbors(u)
			deg += len(row)
			for i, v := range row {
				if i > 0 && row[i-1] >= v {
					t.Fatalf("Graph row %d not strictly sorted: %v", u, row)
				}
				a, b := int32(u), v
				if a > b {
					a, b = b, a
				}
				if !want[[2]int32{a, b}] {
					t.Fatalf("Graph row %d holds non-member %d", u, v)
				}
			}
		}
		if deg != 2*len(want) {
			t.Fatalf("Graph degree sum %d, want %d", deg, 2*len(want))
		}
		rev := make([][2]int32, len(edges))
		for i, e := range edges {
			rev[len(edges)-1-i] = [2]int32{e[1], e[0]}
		}
		if !s.Equal(NewEdgeSet(n, rev)) {
			t.Fatal("Equal rejects the same edges listed reversed")
		}
		if len(es) > 0 {
			drop := es[0]
			var rest [][2]int32
			for _, e := range edges {
				if e != drop && e != [2]int32{drop[1], drop[0]} {
					rest = append(rest, e)
				}
			}
			if o := NewEdgeSet(n, rest); s.Equal(o) || o.Equal(s) {
				t.Fatalf("Equal accepts a set missing %v", drop)
			}
		}
	})
}
