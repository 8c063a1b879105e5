package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestCSRMirrorsGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := New(25)
	for i := 0; i < 80; i++ {
		u, v := rng.Intn(25), rng.Intn(25)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	c := NewCSR(g)
	if c.N() != g.N() || c.M() != g.M() {
		t.Fatalf("n=%d/%d m=%d/%d", c.N(), g.N(), c.M(), g.M())
	}
	for u := 0; u < g.N(); u++ {
		if c.Degree(u) != g.Degree(u) {
			t.Fatalf("degree(%d)", u)
		}
		a, b := c.Neighbors(u), g.Neighbors(u)
		for i := range b {
			if a[i] != b[i] {
				t.Fatalf("neighbors(%d) differ", u)
			}
		}
	}
}

// TestCSRRelabel pins CSR.Relabel on random graphs and permutations:
// row i of the snapshot holds the new ids of order[i]'s neighbours in
// ascending order, and the edge count is kept.
func TestCSRRelabel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 9, 40} {
		g := New(n)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		order := make([]int32, n)
		rank := make([]int32, n)
		for i, u := range rng.Perm(n) {
			order[i], rank[u] = int32(u), int32(i)
		}
		r := NewCSR(g).Relabel(order)
		if r.N() != n || r.M() != g.M() {
			t.Fatalf("n=%d: relabeled n=%d m=%d, want m=%d", n, r.N(), r.M(), g.M())
		}
		for i, u := range order {
			var want []int32
			for _, w := range g.Neighbors(int(u)) {
				want = append(want, rank[w])
			}
			slices.Sort(want)
			if got := r.Neighbors(i); !slices.Equal(got, want) {
				t.Fatalf("n=%d: row %d (vertex %d) = %v, want %v", n, i, u, got, want)
			}
		}
	}
}

// TestCSRBFSOrder pins CSR.BFSOrder against a queue BFS over the
// Graph on random graphs with several components: every component is
// taken from its smallest id, rows are scanned in ascending order, and
// rank is order's inverse.
func TestCSRBFSOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 2, 9, 40, 120} {
		g := New(n)
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		var want []int32
		seen := make([]bool, n)
		for s := 0; s < n; s++ {
			if seen[s] {
				continue
			}
			seen[s] = true
			queue := []int32{int32(s)}
			for len(queue) > 0 {
				u := queue[0]
				queue = queue[1:]
				want = append(want, u)
				for _, w := range g.Neighbors(int(u)) {
					if !seen[w] {
						seen[w] = true
						queue = append(queue, w)
					}
				}
			}
		}
		order, rank := make([]int32, n), make([]int32, n)
		NewCSR(g).BFSOrder(order, rank)
		if !slices.Equal(order, want) {
			t.Fatalf("n=%d: order %v, want %v", n, order, want)
		}
		for i, u := range order {
			if rank[u] != int32(i) {
				t.Fatalf("n=%d: rank[%d] = %d, want %d", n, u, rank[u], i)
			}
		}
	}
}

// TestCSRPermuteInto pins CSR.PermuteInto on random graphs and
// permutations: row i holds the new ids of order[i]'s neighbours in
// the original row's order (ascending in original id, unlike Relabel),
// and one destination reused across smaller and larger snapshots
// allocates only to grow.
func TestCSRPermuteInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var dst CSR
	for _, n := range []int{40, 9, 0, 1, 2, 60} {
		g := New(n)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		order := make([]int32, n)
		rank := make([]int32, n)
		for i, u := range rng.Perm(n) {
			order[i], rank[u] = int32(u), int32(i)
		}
		c := NewCSR(g)
		grows := cap(dst.targets) < len(c.targets) || cap(dst.offsets) < n+1
		if allocs := testing.AllocsPerRun(1, func() { c.PermuteInto(&dst, order, rank) }); !grows && allocs != 0 {
			t.Fatalf("n=%d: PermuteInto into a large enough destination allocated %v times", n, allocs)
		}
		if dst.N() != n || dst.M() != g.M() {
			t.Fatalf("n=%d: permuted n=%d m=%d, want m=%d", n, dst.N(), dst.M(), g.M())
		}
		for i, u := range order {
			var want []int32
			for _, w := range g.Neighbors(int(u)) {
				want = append(want, rank[w])
			}
			if got := dst.Neighbors(i); !slices.Equal(got, want) {
				t.Fatalf("n=%d: row %d (vertex %d) = %v, want %v", n, i, u, got, want)
			}
		}
	}
}

func TestCSRBFSMatches(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(25)
		g := New(n)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		c := NewCSR(g)
		s := NewBFSScratch(n)
		for src := 0; src < n; src++ {
			want := BFS(g, src)
			dist, _, _ := s.BoundedView(c, src, n)
			for v := 0; v < n; v++ {
				if dist[v] != want[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCSRSnapshotIsolation(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	c := NewCSR(g)
	g.AddEdge(1, 2)
	if c.M() != 1 {
		t.Fatal("snapshot observed a later mutation")
	}
}

func TestCSREmpty(t *testing.T) {
	c := NewCSR(New(0))
	if c.N() != 0 || c.M() != 0 {
		t.Fatal("empty CSR")
	}
}

func TestCheckEdgeSlotsBoundary(t *testing.T) {
	// The guard itself is unit-tested at the boundary: 2³¹−1 slots is
	// the largest representable layout, one more must panic. The real
	// overflow cannot be materialized (it needs >1 billion edges).
	checkEdgeSlots(maxEdgeSlots) // must not panic
	checkEdgeSlots(0)
	defer func() {
		if recover() == nil {
			t.Fatal("checkEdgeSlots(maxEdgeSlots+1) did not panic")
		}
	}()
	checkEdgeSlots(maxEdgeSlots + 1)
}

func TestNewCSRGuardsOverflow(t *testing.T) {
	// NewCSR must route through the guard; exercised via the helper's
	// boundary above, here we just pin that a normal snapshot passes.
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	c := NewCSR(g)
	if c.M() != 2 {
		t.Fatalf("M = %d, want 2", c.M())
	}
}
