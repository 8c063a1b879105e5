package flow

import (
	"fmt"

	"remspan/internal/graph"
)

// Result carries a set of disjoint paths and their total length.
type Result struct {
	Total int       // sum of path lengths in edges
	Paths [][]int32 // each path is s, ..., t
}

// vertex-split network layout: in(v)=2v, out(v)=2v+1. The source is
// out(s) and the sink is in(t) so that s and t themselves are not
// capacity-constrained.
func buildVertexSplit(g *graph.Graph, s, t int) *mcmf {
	n := g.N()
	f := newMCMF(2 * n)
	for v := 0; v < n; v++ {
		if v == s || v == t {
			f.addArc(int32(2*v), int32(2*v+1), inf, 0)
		} else {
			f.addArc(int32(2*v), int32(2*v+1), 1, 0)
		}
	}
	g.EachEdge(func(u, v int) {
		f.addArc(int32(2*u+1), int32(2*v), 1, 1)
		f.addArc(int32(2*v+1), int32(2*u), 1, 1)
	})
	return f
}

// VertexDisjointPaths returns k internally vertex-disjoint s→t paths
// with minimum total length, or ok=false if fewer than k exist.
// Successive shortest paths guarantee the minimum sum for every prefix
// k' <= k as well. A non-nil error means the computed flow could not be
// decomposed into paths — an internal-invariant failure a serving
// process should surface, not die on.
func VertexDisjointPaths(g *graph.Graph, s, t, k int) (Result, bool, error) {
	if s == t {
		return Result{}, false, nil
	}
	f := buildVertexSplit(g, s, t)
	total := 0
	for i := 0; i < k; i++ {
		c, ok := f.augment(int32(2*s+1), int32(2*t))
		if !ok {
			return Result{}, false, nil
		}
		total += int(c)
	}
	paths, err := extractVertexPaths(f, g.N(), s, t, k)
	if err != nil {
		return Result{}, false, err
	}
	return Result{Total: total, Paths: paths}, true, nil
}

// KDistance returns the paper's k-connecting distance d^k(s, t): the
// minimum length sum of k internally vertex-disjoint paths, or -1 when
// no k disjoint paths exist (d^k = ∞). Only the flow value is needed,
// so no path decomposition runs.
func KDistance(g *graph.Graph, s, t, k int) int {
	if s == t {
		return -1
	}
	f := buildVertexSplit(g, s, t)
	total := 0
	for i := 0; i < k; i++ {
		c, ok := f.augment(int32(2*s+1), int32(2*t))
		if !ok {
			return -1
		}
		total += int(c)
	}
	return total
}

// KDistanceProfile returns d^1..d^k in one flow run (successive
// shortest paths yield the optimum for every prefix). Entries are -1
// where fewer disjoint paths exist.
func KDistanceProfile(g *graph.Graph, s, t, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = -1
	}
	if s == t {
		return out
	}
	f := buildVertexSplit(g, s, t)
	total := 0
	for i := 0; i < k; i++ {
		c, ok := f.augment(int32(2*s+1), int32(2*t))
		if !ok {
			break
		}
		total += int(c)
		out[i] = total
	}
	return out
}

// extractVertexPaths decomposes the unit flow on the vertex-split
// network into k paths over original vertex ids.
func extractVertexPaths(f *mcmf, n, s, t, k int) ([][]int32, error) {
	// usedTo[v] = list of successors of v carried by flow (original ids).
	usedTo := make(map[int32][]int32, n)
	for u := 0; u < n; u++ {
		for e := f.head[2*u+1]; e != -1; e = f.next[e] {
			// Forward inter-vertex arcs have even id and cost 1; flow
			// passed iff residual cap of the reverse arc is positive.
			if e%2 == 0 && f.cost[e] == 1 && f.cap[e^1] > 0 {
				v := f.to[e] / 2
				for c := f.cap[e^1]; c > 0; c-- {
					usedTo[int32(u)] = append(usedTo[int32(u)], v)
				}
			}
		}
	}
	paths := make([][]int32, 0, k)
	for i := 0; i < k; i++ {
		path := []int32{int32(s)}
		cur := int32(s)
		for cur != int32(t) {
			succs := usedTo[cur]
			if len(succs) == 0 {
				return nil, fmt.Errorf("flow: path decomposition stuck at %d", cur)
			}
			next := succs[len(succs)-1]
			usedTo[cur] = succs[:len(succs)-1]
			path = append(path, next)
			cur = next
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// EdgeKDistance is the edge-disjoint analogue of KDistance. Only the
// flow value is needed, so no path decomposition runs.
func EdgeKDistance(g *graph.Graph, s, t, k int) int {
	if s == t {
		return -1
	}
	n := g.N()
	f := newMCMF(n)
	g.EachEdge(func(u, v int) {
		f.addArc(int32(u), int32(v), 1, 1)
		f.addArc(int32(v), int32(u), 1, 1)
	})
	total := 0
	for i := 0; i < k; i++ {
		c, ok := f.augment(int32(s), int32(t))
		if !ok {
			return -1
		}
		total += int(c)
	}
	return total
}

// ArePathsInternallyDisjoint verifies that the given s→t paths are
// simple, valid in g, and share no internal vertex (s and t excluded).
func ArePathsInternallyDisjoint(g *graph.Graph, s, t int, paths [][]int32) error {
	seen := make(map[int32]int)
	for pi, p := range paths {
		if len(p) < 2 || p[0] != int32(s) || p[len(p)-1] != int32(t) {
			return fmt.Errorf("flow: path %d has bad endpoints", pi)
		}
		inPath := make(map[int32]bool)
		for i := 0; i+1 < len(p); i++ {
			if !g.HasEdge(int(p[i]), int(p[i+1])) {
				return fmt.Errorf("flow: path %d uses non-edge {%d,%d}", pi, p[i], p[i+1])
			}
		}
		for _, v := range p {
			if inPath[v] {
				return fmt.Errorf("flow: path %d revisits %d", pi, v)
			}
			inPath[v] = true
			if v == int32(s) || v == int32(t) {
				continue
			}
			if prev, ok := seen[v]; ok {
				return fmt.Errorf("flow: paths %d and %d share internal vertex %d", prev, pi, v)
			}
			seen[v] = pi
		}
	}
	return nil
}
