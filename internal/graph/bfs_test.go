package graph

import (
	"math/rand"
	"testing"
)

func pathGraph(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestBFSPath(t *testing.T) {
	g := pathGraph(5)
	d := BFS(g, 0)
	for v := 0; v < 5; v++ {
		if d[v] != int32(v) {
			t.Errorf("d[%d]=%d, want %d", v, d[v], v)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	d := BFS(g, 0)
	if d[2] != Unreached || d[3] != Unreached {
		t.Fatalf("expected unreached, got %v", d)
	}
}

func TestBFSTreeParents(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	parent, dist := BFSTree(g, 0)
	if parent[0] != -1 || dist[0] != 0 {
		t.Fatal("bad root bookkeeping")
	}
	// deterministic smallest-id parent at previous level
	if parent[3] != 1 {
		t.Errorf("parent[3]=%d, want 1 (smallest-id BFS)", parent[3])
	}
	for v := 1; v < 5; v++ {
		p := parent[v]
		if dist[v] != dist[p]+1 {
			t.Errorf("dist[%d]=%d, parent dist %d", v, dist[v], dist[p])
		}
		if !g.HasEdge(v, int(p)) {
			t.Errorf("parent edge {%d,%d} missing", v, p)
		}
	}
}

func TestBoundedBFSMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(30)
		g := New(n)
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		full := BFS(g, 0)
		s := NewBFSScratch(n)
		for r := 0; r <= 4; r++ {
			dist, parent, visited := s.BoundedView(g, 0, r)
			for v := 0; v < n; v++ {
				want := full[v]
				if want != Unreached && int(want) > r {
					want = Unreached
				}
				if dist[v] != want {
					t.Fatalf("n=%d r=%d: dist[%d]=%d, want %d", n, r, v, dist[v], want)
				}
			}
			for _, v := range visited {
				if v != 0 {
					p := parent[v]
					if p < 0 || dist[v] != dist[p]+1 {
						t.Fatalf("bad bounded parent for %d", v)
					}
				}
			}
		}
	}
}

func TestBFSScratchReuse(t *testing.T) {
	g := pathGraph(6)
	s := NewBFSScratch(6)
	d1, _, _ := s.BoundedView(g, 0, 10)
	if d1[5] != 5 {
		t.Fatalf("first run wrong: %v", d1)
	}
	d2, _, _ := s.BoundedView(g, 5, 2)
	if d2[5] != 0 || d2[3] != 2 || d2[0] != Unreached {
		t.Fatalf("second run not reset correctly: %v", d2)
	}
}
