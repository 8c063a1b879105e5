package graph

import (
	"math/rand"
	"testing"
)

func TestTreeBasic(t *testing.T) {
	tr := NewTree(5, 2)
	if tr.Root() != 2 || tr.Size() != 1 || tr.EdgeCount() != 0 {
		t.Fatal("bad initial tree")
	}
	tr.Add(0, 2)
	tr.Add(4, 0)
	if tr.Depth(4) != 2 || tr.Parent(4) != 0 {
		t.Fatalf("depth/parent wrong: %d %d", tr.Depth(4), tr.Parent(4))
	}
	if tr.Contains(1) {
		t.Fatal("phantom member")
	}
	if tr.EdgeCount() != 2 {
		t.Fatalf("edges=%d, want 2", tr.EdgeCount())
	}
}

func TestTreeAddDuplicatePanics(t *testing.T) {
	tr := NewTree(3, 0)
	tr.Add(1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate Add")
		}
	}()
	tr.Add(1, 0)
}

func TestTreeAddPath(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(0, 4)
	g.AddEdge(4, 5)
	parent, _ := BFSTree(g, 0)
	tr := NewTree(6, 0)
	tr.AddPath(parent, 3)
	tr.AddPath(parent, 5)
	tr.AddPath(parent, 3) // idempotent
	if tr.Size() != 6 {
		t.Fatalf("size=%d, want 6", tr.Size())
	}
	if err := tr.Validate(g); err != nil {
		t.Fatal(err)
	}
	if tr.Depth(3) != 3 || tr.Depth(5) != 2 {
		t.Fatalf("depths wrong: %d %d", tr.Depth(3), tr.Depth(5))
	}
}

func TestTreeBranch(t *testing.T) {
	tr := NewTree(7, 0)
	tr.Add(1, 0)
	tr.Add(2, 0)
	tr.Add(3, 1)
	tr.Add(4, 3)
	tr.Add(5, 2)
	if tr.Branch(4) != 1 {
		t.Errorf("branch(4)=%d, want 1", tr.Branch(4))
	}
	if tr.Branch(5) != 2 {
		t.Errorf("branch(5)=%d, want 2", tr.Branch(5))
	}
	if tr.Branch(1) != 1 {
		t.Errorf("branch(1)=%d, want 1", tr.Branch(1))
	}
	if tr.Branch(0) != -1 {
		t.Errorf("branch(root)=%d, want -1", tr.Branch(0))
	}
	if tr.Branch(6) != -1 {
		t.Errorf("branch(non-member)=%d, want -1", tr.Branch(6))
	}
}

func TestTreeEdgesMatchSize(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(20)
		g := New(n)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		parent, dist := BFSTree(g, 0)
		tr := NewTree(n, 0)
		for v := 0; v < n; v++ {
			if dist[v] != Unreached {
				tr.AddPath(parent, v)
			}
		}
		if tr.EdgeCount() != tr.Size()-1 {
			t.Fatalf("edges=%d size=%d", tr.EdgeCount(), tr.Size())
		}
		if len(tr.Edges()) != tr.EdgeCount() {
			t.Fatal("Edges() length mismatch")
		}
		if err := tr.Validate(g); err != nil {
			t.Fatal(err)
		}
		// Depth equals BFS distance when built from BFS parents.
		for v := 0; v < n; v++ {
			if dist[v] != Unreached && tr.Depth(v) != int(dist[v]) {
				t.Fatalf("depth(%d)=%d, want %d", v, tr.Depth(v), dist[v])
			}
		}
	}
}
