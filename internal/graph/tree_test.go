package graph

import "testing"

func TestTreeBasic(t *testing.T) {
	tr := NewTree(5, 2)
	if tr.Root() != 2 || len(tr.Nodes()) != 1 || tr.EdgeCount() != 0 {
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
