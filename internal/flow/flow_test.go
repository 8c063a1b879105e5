package flow

import (
	"math/rand"
	"testing"

	"remspan/internal/graph"
)

// bruteKDistance enumerates all ways to route k internally disjoint
// paths via DFS over simple paths — exponential, small graphs only.
func bruteKDistance(g *graph.Graph, s, t, k int) int {
	best := -1
	used := make([]bool, g.N())
	directUsed := false // the s–t edge is the only edge shareable without sharing an internal vertex
	var paths [][]int32

	var searchPath func(cur int32, path []int32, total int)
	var nextPath func(total int)

	nextPath = func(total int) {
		if len(paths) == k {
			if best == -1 || total < best {
				best = total
			}
			return
		}
		if best != -1 && total >= best {
			return
		}
		searchPath(int32(s), []int32{int32(s)}, total)
	}
	searchPath = func(cur int32, path []int32, total int) {
		if best != -1 && total+len(path)-1 >= best && len(paths)+1 == k {
			// weak prune; keep exploring otherwise for correctness
		}
		for _, nb := range g.Neighbors(int(cur)) {
			if nb == int32(t) {
				direct := len(path) == 1
				if direct && directUsed {
					continue
				}
				// complete path
				p := append(append([]int32(nil), path...), nb)
				for _, v := range p {
					if v != int32(s) && v != int32(t) {
						used[v] = true
					}
				}
				if direct {
					directUsed = true
				}
				paths = append(paths, p)
				nextPath(total + len(p) - 1)
				paths = paths[:len(paths)-1]
				if direct {
					directUsed = false
				}
				for _, v := range p {
					if v != int32(s) && v != int32(t) {
						used[v] = false
					}
				}
				continue
			}
			if int(nb) == s || used[nb] {
				continue
			}
			inPath := false
			for _, v := range path {
				if v == nb {
					inPath = true
					break
				}
			}
			if inPath {
				continue
			}
			searchPath(nb, append(path, nb), total)
		}
	}
	nextPath(0)
	return best
}

func TestVertexDisjointSimpleCycle(t *testing.T) {
	// Cycle of 6: two disjoint paths between opposite vertices have
	// total length 6.
	g := graph.New(6)
	for i := 0; i < 6; i++ {
		g.AddEdge(i, (i+1)%6)
	}
	res, ok, err := VertexDisjointPaths(g, 0, 3, 2)
	if err != nil || !ok {
		t.Fatal("expected 2 disjoint paths in C6")
	}
	if res.Total != 6 {
		t.Fatalf("total=%d, want 6", res.Total)
	}
	if err := ArePathsInternallyDisjoint(g, 0, 3, res.Paths); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := VertexDisjointPaths(g, 0, 3, 3); ok {
		t.Fatal("C6 should not have 3 disjoint paths")
	}
}

func TestKDistanceUnreachable(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if d := KDistance(g, 0, 3, 1); d != -1 {
		t.Fatalf("disconnected d=%d, want -1", d)
	}
}

func TestKDistanceAdjacent(t *testing.T) {
	// Adjacent pair: first path is the direct edge.
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(2, 1)
	g.AddEdge(0, 3)
	g.AddEdge(3, 1)
	prof := KDistanceProfile(g, 0, 1, 3)
	if prof[0] != 1 {
		t.Fatalf("d1=%d, want 1", prof[0])
	}
	if prof[1] != 3 {
		t.Fatalf("d2=%d, want 3", prof[1])
	}
	if prof[2] != 5 {
		t.Fatalf("d3=%d, want 5", prof[2])
	}
}

func TestVertexConnectivityKn(t *testing.T) {
	// K5 has vertex connectivity 4: the direct edge plus three
	// two-hop paths, and no fifth disjoint path.
	g := graph.New(5)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			g.AddEdge(u, v)
		}
	}
	if d := KDistance(g, 0, 4, 4); d != 7 {
		t.Fatalf("K5 d^4 = %d, want 1+2+2+2 = 7", d)
	}
	if d := KDistance(g, 0, 4, 5); d != -1 {
		t.Fatalf("K5 d^5 = %d, want -1 (connectivity 4)", d)
	}
}

func TestKDistanceMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(5)
		g := graph.New(n)
		for i := 0; i < n*2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		s, tt := 0, n-1
		for k := 1; k <= 3; k++ {
			want := bruteKDistance(g, s, tt, k)
			got := KDistance(g, s, tt, k)
			if got != want {
				t.Fatalf("trial %d n=%d k=%d: flow=%d brute=%d", trial, n, k, got, want)
			}
			if got >= 0 {
				res, _, _ := VertexDisjointPaths(g, s, tt, k)
				if err := ArePathsInternallyDisjoint(g, s, tt, res.Paths); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				sum := 0
				for _, p := range res.Paths {
					sum += len(p) - 1
				}
				if sum != got {
					t.Fatalf("paths sum %d != total %d", sum, got)
				}
			}
		}
	}
}

func TestKDistanceProfileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(8)
		g := graph.New(n)
		for i := 0; i < n*3; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		prof := KDistanceProfile(g, 0, n-1, 4)
		prev := 0
		for _, d := range prof {
			if d == -1 {
				continue
			}
			if d < prev {
				t.Fatalf("profile not monotone: %v", prof)
			}
			prev = d
		}
		// prefix consistency with single-shot KDistance
		for k := 1; k <= 4; k++ {
			if got := KDistance(g, 0, n-1, k); got != prof[k-1] {
				t.Fatalf("KDistance(%d)=%d, profile %d", k, got, prof[k-1])
			}
		}
	}
}

func TestEdgeDisjointPaths(t *testing.T) {
	// Two triangles sharing a vertex: 2 edge-disjoint paths exist
	// through the shared cut vertex but not 2 vertex-disjoint ones.
	// The cheapest edge-disjoint pair is (0-2-4) + (0-1-2-3-4) = 6.
	g := graph.New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(2, 4)
	if d := EdgeKDistance(g, 0, 4, 2); d != 6 {
		t.Fatalf("edge d^2 = %d, want 6", d)
	}
	if d := KDistance(g, 0, 4, 2); d != -1 {
		t.Fatalf("vertex d^2 = %d, want -1 (cut vertex 2)", d)
	}
}

func TestEdgeKDistance(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if d := EdgeKDistance(g, 0, 2, 1); d != 2 {
		t.Fatalf("d=%d, want 2", d)
	}
	if d := EdgeKDistance(g, 0, 2, 2); d != -1 {
		t.Fatalf("d=%d, want -1", d)
	}
}

func TestVertexVsEdgeConnectivityDominance(t *testing.T) {
	// Vertex-disjoint paths are edge-disjoint, so whenever k
	// vertex-disjoint paths exist the edge-disjoint optimum is at most
	// their total: d^k ≠ −1 ⇒ edge-d^k ≤ d^k.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(8)
		g := graph.New(n)
		for i := 0; i < n*2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		for s := 0; s < n; s++ {
			for tt := 0; tt < n; tt++ {
				for k := 1; k <= 3; k++ {
					vd := KDistance(g, s, tt, k)
					if vd == -1 {
						continue
					}
					if ed := EdgeKDistance(g, s, tt, k); ed == -1 || ed > vd {
						t.Fatalf("trial %d (%d,%d) k=%d: edge d^k %d vs vertex d^k %d", trial, s, tt, k, ed, vd)
					}
				}
			}
		}
	}
}

func TestArePathsInternallyDisjointErrors(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 4)
	g.AddEdge(0, 2)
	g.AddEdge(2, 4)
	// shared internal vertex
	bad := [][]int32{{0, 1, 4}, {0, 1, 4}}
	if err := ArePathsInternallyDisjoint(g, 0, 4, bad); err == nil {
		t.Fatal("expected shared-vertex error")
	}
	// non-edge
	bad2 := [][]int32{{0, 3, 4}}
	if err := ArePathsInternallyDisjoint(g, 0, 4, bad2); err == nil {
		t.Fatal("expected non-edge error")
	}
	// bad endpoints
	bad3 := [][]int32{{1, 4}}
	if err := ArePathsInternallyDisjoint(g, 0, 4, bad3); err == nil {
		t.Fatal("expected endpoint error")
	}
	good := [][]int32{{0, 1, 4}, {0, 2, 4}}
	if err := ArePathsInternallyDisjoint(g, 0, 4, good); err != nil {
		t.Fatal(err)
	}
}
