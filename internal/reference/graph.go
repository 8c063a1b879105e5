package reference

import (
	"fmt"
	"slices"

	"remspan/internal/graph"
)

// HasEdge reports whether {u, w} is an edge of g by a binary search of
// u's sorted row: the edge probe of a view that has none, such as the
// maintainer's graph.CSRDelta.
func HasEdge(g graph.View, u, w int) bool {
	_, ok := slices.BinarySearch(g.Neighbors(u), int32(w))
	return ok && u != w
}

// Equal reports whether g and h have identical vertex and edge sets.
func Equal(g, h graph.View) bool {
	if g.N() != h.N() || g.M() != h.M() {
		return false
	}
	for u := 0; u < g.N(); u++ {
		a, b := g.Neighbors(u), h.Neighbors(u)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

// ValidateTree checks t's internal consistency: every member's parent
// chain reaches the root with strictly decreasing depth, and every tree
// edge exists in host (when host != nil).
func ValidateTree(t *graph.Tree, host *graph.Graph) error {
	for _, v := range t.Nodes() {
		p := t.Parent(int(v))
		if int(v) == t.Root() {
			if p != -1 || t.Depth(int(v)) != 0 {
				return fmt.Errorf("reference: bad root bookkeeping for %d", v)
			}
			continue
		}
		if p < 0 {
			return fmt.Errorf("reference: member %d has no parent", v)
		}
		if t.Depth(int(v)) != t.Depth(p)+1 {
			return fmt.Errorf("reference: depth of %d (%d) != depth of parent %d (%d)+1",
				v, t.Depth(int(v)), p, t.Depth(p))
		}
		if host != nil && !host.HasEdge(int(v), p) {
			return fmt.Errorf("reference: tree edge {%d,%d} not in host graph", v, p)
		}
	}
	return nil
}

// Eccentricity returns the largest finite distance from src: 0 when src
// reaches no other vertex.
func Eccentricity(g *graph.Graph, src int) int {
	dist := graph.BFS(g, src)
	ecc := 0
	for _, d := range dist {
		if d != graph.Unreached && int(d) > ecc {
			ecc = int(d)
		}
	}
	return ecc
}

// Diameter returns the largest eccentricity over all vertices of a
// connected graph; for disconnected graphs it is the largest finite
// distance. O(n·m).
func Diameter(g *graph.Graph) int {
	diam := 0
	for u := 0; u < g.N(); u++ {
		if e := Eccentricity(g, u); e > diam {
			diam = e
		}
	}
	return diam
}

// AllPairsDistances returns the full distance matrix via n BFS runs.
// Intended for verification on small graphs: O(n·m) time, O(n²) space.
func AllPairsDistances(g *graph.Graph) [][]int32 {
	d := make([][]int32, g.N())
	for u := range d {
		d[u] = graph.BFS(g, u)
	}
	return d
}
