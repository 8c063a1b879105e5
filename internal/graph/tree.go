package graph

import "fmt"

// Tree is a rooted tree over a subset of the vertices 0..n-1 of some
// host graph. It is the representation of the paper's dominating trees:
// a root plus parent pointers, with depths maintained incrementally.
type Tree struct {
	root    int32
	parent  []int32 // parent[v] = parent of v, -1 for root, NotInTree for non-members
	depth   []int32 // depth[v], -1 for non-members
	nodes   []int32 // members in insertion order (root first)
	edges   int
	pathBuf []int32 // reusable AddPath walk stack
}

// NotInTree marks vertices that are not part of a Tree.
const NotInTree = int32(-2)

// NewTree returns a tree on host-vertex universe of size n containing
// only root.
func NewTree(n, root int) *Tree {
	if root < 0 || root >= n {
		panic("graph: tree root out of range")
	}
	t := &Tree{
		root:   int32(root),
		parent: make([]int32, n),
		depth:  make([]int32, n),
	}
	for i := range t.parent {
		t.parent[i] = NotInTree
		t.depth[i] = -1
	}
	t.parent[root] = -1
	t.depth[root] = 0
	t.nodes = append(t.nodes, int32(root))
	return t
}

// Reset re-initializes t to contain only root, clearing the previous
// membership in O(previous tree size) instead of the O(n) a fresh
// NewTree pays. It is the key to allocation-free all-roots construction
// sweeps: one pooled tree per worker, reset per root.
func (t *Tree) Reset(root int) {
	if root < 0 || root >= len(t.parent) {
		panic("graph: tree root out of range")
	}
	for _, v := range t.nodes {
		t.parent[v] = NotInTree
		t.depth[v] = -1
	}
	t.nodes = t.nodes[:0]
	t.edges = 0
	t.root = int32(root)
	t.parent[root] = -1
	t.depth[root] = 0
	t.nodes = append(t.nodes, int32(root))
}

// Root returns the root vertex.
func (t *Tree) Root() int { return int(t.root) }

// Contains reports whether v is a member of the tree.
func (t *Tree) Contains(v int) bool { return t.parent[v] != NotInTree }

// Size returns the number of member vertices.
func (t *Tree) Size() int { return len(t.nodes) }

// EdgeCount returns the number of tree edges (Size()-1).
func (t *Tree) EdgeCount() int { return t.edges }

// Depth returns the depth of v, or -1 if v is not in the tree.
func (t *Tree) Depth(v int) int { return int(t.depth[v]) }

// Parent returns the parent of v, -1 for the root, and an error value
// of -2 (NotInTree) for non-members.
func (t *Tree) Parent(v int) int { return int(t.parent[v]) }

// Nodes returns the member vertices in insertion order (root first).
// The slice is shared and must not be modified.
func (t *Tree) Nodes() []int32 { return t.nodes }

// Add attaches v as a child of p. p must already be in the tree and v
// must not be.
func (t *Tree) Add(v, p int) {
	if t.parent[p] == NotInTree {
		panic(fmt.Sprintf("graph: tree parent %d not in tree", p))
	}
	if t.parent[v] != NotInTree {
		panic(fmt.Sprintf("graph: vertex %d already in tree", v))
	}
	t.parent[v] = int32(p)
	t.depth[v] = t.depth[p] + 1
	t.nodes = append(t.nodes, int32(v))
	t.edges++
}

// AddPath attaches x to the tree along the given parent array (e.g.
// from a BFS tree of the host graph rooted at t.Root()): it walks from
// x up the parent pointers until it reaches a vertex already in the
// tree, then adds the walked vertices top-down. If x is already a
// member this is a no-op.
//
// Using one shared parent array per root guarantees the union of added
// paths stays a tree and that Depth(v) equals the BFS distance.
func (t *Tree) AddPath(parents []int32, x int) {
	if t.Contains(x) {
		return
	}
	stack := t.pathBuf[:0]
	v := int32(x)
	for !t.Contains(int(v)) {
		stack = append(stack, v)
		v = parents[v]
		if v < 0 {
			panic("graph: AddPath walked past the root without joining the tree")
		}
	}
	t.pathBuf = stack
	for i := len(stack) - 1; i >= 0; i-- {
		t.Add(int(stack[i]), int(v))
		v = stack[i]
	}
}

// Edges returns the tree edges as (child, parent) pairs in insertion
// order of the child.
func (t *Tree) Edges() [][2]int32 {
	out := make([][2]int32, 0, t.edges)
	for _, v := range t.nodes {
		if p := t.parent[v]; p >= 0 {
			out = append(out, [2]int32{v, p})
		}
	}
	return out
}

// Branch returns the child of the root on the path from the root to v
// (v itself if v is a child of the root), or -1 for the root/non-members.
// Two members have internally disjoint root paths iff their branches
// differ.
func (t *Tree) Branch(v int) int {
	if !t.Contains(v) || int32(v) == t.root {
		return -1
	}
	x := int32(v)
	for t.parent[x] != t.root && t.parent[x] >= 0 {
		x = t.parent[x]
	}
	return int(x)
}

// Validate checks internal consistency: every member's parent chain
// reaches the root with strictly decreasing depth, and every tree edge
// exists in host (when host != nil).
func (t *Tree) Validate(host *Graph) error {
	for _, v := range t.nodes {
		p := t.parent[v]
		if v == t.root {
			if p != -1 || t.depth[v] != 0 {
				return fmt.Errorf("graph: bad root bookkeeping for %d", v)
			}
			continue
		}
		if p < 0 {
			return fmt.Errorf("graph: member %d has no parent", v)
		}
		if t.depth[v] != t.depth[p]+1 {
			return fmt.Errorf("graph: depth of %d (%d) != depth of parent %d (%d)+1",
				v, t.depth[v], p, t.depth[p])
		}
		if host != nil && !host.HasEdge(int(v), int(p)) {
			return fmt.Errorf("graph: tree edge {%d,%d} not in host graph", v, p)
		}
	}
	return nil
}
