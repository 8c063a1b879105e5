package domtree

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"remspan/internal/gen"
	"remspan/internal/graph"
	"remspan/internal/reference"
)

// treeEdgesEqual compares two trees as rooted edge sets: same root and
// identical (child, parent) assignments.
func treeEdgesEqual(a, b *graph.Tree) bool {
	if a.Root() != b.Root() || len(a.Nodes()) != len(b.Nodes()) || a.EdgeCount() != b.EdgeCount() {
		return false
	}
	for _, v := range a.Nodes() {
		if !b.Contains(int(v)) || a.Parent(int(v)) != b.Parent(int(v)) {
			return false
		}
	}
	return true
}

// builderPair couples a map-based reference builder with its
// production form.
type builderPair struct {
	name string
	ref  func(g *graph.Graph, u int) *graph.Tree
	csr  func(c *graph.CSR, s *Scratch, u int) *graph.Tree
}

func pairs() []builderPair {
	return []builderPair{
		{"kgreedy-1",
			func(g *graph.Graph, u int) *graph.Tree { return reference.KGreedy(g, u, 1) },
			func(c *graph.CSR, s *Scratch, u int) *graph.Tree { return KGreedyCSR(c, s, u, 1) }},
		{"kgreedy-3",
			func(g *graph.Graph, u int) *graph.Tree { return reference.KGreedy(g, u, 3) },
			func(c *graph.CSR, s *Scratch, u int) *graph.Tree { return KGreedyCSR(c, s, u, 3) }},
		{"greedy-r3-b0",
			func(g *graph.Graph, u int) *graph.Tree { return reference.Greedy(g, nil, u, 3, 0) },
			func(c *graph.CSR, s *Scratch, u int) *graph.Tree { return GreedyCSR(c, s, u, 3, 0) }},
		{"greedy-r3-b1",
			func(g *graph.Graph, u int) *graph.Tree { return reference.Greedy(g, nil, u, 3, 1) },
			func(c *graph.CSR, s *Scratch, u int) *graph.Tree { return GreedyCSR(c, s, u, 3, 1) }},
		{"mis-r3",
			func(g *graph.Graph, u int) *graph.Tree { return reference.MIS(g, nil, u, 3) },
			func(c *graph.CSR, s *Scratch, u int) *graph.Tree { return MISCSR(c, s, u, 3) }},
		{"kmis-2",
			func(g *graph.Graph, u int) *graph.Tree { return reference.KMIS(g, u, 2) },
			func(c *graph.CSR, s *Scratch, u int) *graph.Tree { return KMISCSR(c, s, u, 2) }},
	}
}

// checkAllRoots asserts per-root tree identity between reference and
// CSR builders, sharing one scratch across roots (the production usage
// pattern, so stale-state bugs surface).
func checkAllRoots(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	c := graph.NewCSR(g)
	for _, p := range pairs() {
		s := NewScratch(g.N())
		for u := 0; u < g.N(); u++ {
			want := p.ref(g, u)
			got := p.csr(c, s, u)
			if !treeEdgesEqual(want, got) {
				t.Fatalf("%s/%s: tree mismatch at root %d (ref %d edges, csr %d edges)",
					name, p.name, u, want.EdgeCount(), got.EdgeCount())
			}
		}
	}
}

func TestCSREquivalenceFixedFamilies(t *testing.T) {
	families := map[string]*graph.Graph{
		"ring13":    gen.Ring(13),
		"path9":     gen.Path(9),
		"star12":    reference.Star(12),
		"complete9": reference.Complete(9),
		"grid5x6":   gen.Grid(5, 6),
		"petersen":  reference.Petersen(),
		"hypercube": gen.Hypercube(4),
		"barbell":   reference.Barbell(5, 3),
		// Balls far smaller than n: exercises the small-ball sort
		// branch of MISCSR (the others hit the dense bucket branch).
		"ring200":   gen.Ring(200),
		"grid20x20": gen.Grid(20, 20),
	}
	for name, g := range families {
		checkAllRoots(t, name, g)
	}
}

func TestCSREquivalenceRandomFamilies(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		checkAllRoots(t, "erdos-renyi", gen.ErdosRenyi(40, 0.12, rng))
		checkAllRoots(t, "gnm", reference.GNM(36, 90, rng))
		tree := gen.RandomTree(30, rng)
		for i := 0; i < 25; i++ {
			u, v := rng.Intn(30), rng.Intn(30)
			if u != v {
				tree.AddEdge(u, v)
			}
		}
		checkAllRoots(t, "tree-plus-chords", tree)
	}
}

// TestScratchReuseAcrossSizes guards the nil/undersized-scratch path.
func TestScratchReuseAcrossSizes(t *testing.T) {
	small := gen.Ring(8)
	big := gen.Grid(6, 6)
	s := NewScratch(big.N())
	cs, cb := graph.NewCSR(small), graph.NewCSR(big)
	for u := 0; u < small.N(); u++ {
		if !treeEdgesEqual(reference.KGreedy(small, u, 2), KGreedyCSR(cs, s, u, 2)) {
			t.Fatalf("shared big scratch on small graph diverged at %d", u)
		}
	}
	for u := 0; u < big.N(); u++ {
		if !treeEdgesEqual(reference.KGreedy(big, u, 2), KGreedyCSR(cb, s, u, 2)) {
			t.Fatalf("scratch reuse across sizes diverged at %d", u)
		}
	}
	// nil scratch must still work.
	if !treeEdgesEqual(reference.KGreedy(big, 0, 2), KGreedyCSR(cb, nil, 0, 2)) {
		t.Fatal("nil scratch diverged")
	}
}

// The lazy-heap k-greedy (KGreedyCSR) must reproduce the eager
// rescan-every-candidate greedy (reference.KGreedy) edge for edge —
// the determinism contract of csr.go — including k = 2, dense balls
// and trivial roots.

func TestLazyMatchesEagerKGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 40; trial++ {
		g := randomConnected(10+rng.Intn(40), 80, rng)
		u := rng.Intn(g.N())
		for k := 1; k <= 3; k++ {
			eager := reference.KGreedy(g, u, k)
			lazy := KGreedyCSR(g, nil, u, k)
			ee, le := eager.Edges(), lazy.Edges()
			if len(ee) != len(le) {
				t.Fatalf("trial %d u=%d k=%d: eager %d edges, lazy %d",
					trial, u, k, len(ee), len(le))
			}
			for i := range ee {
				if ee[i] != le[i] {
					t.Fatalf("trial %d u=%d k=%d: edge %d differs (%v vs %v)",
						trial, u, k, i, ee[i], le[i])
				}
			}
		}
	}
}

func TestLazyMatchesEagerQuick(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + int(kRaw%3)
		g := randomConnected(8+rng.Intn(20), 40, rng)
		u := rng.Intn(g.N())
		return treeEdgesEqual(reference.KGreedy(g, u, k), KGreedyCSR(g, nil, u, k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLazyOnDenseUDG(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomUDG(300, 3, 1.0, rng)
	if g.N() < 100 {
		t.Skip("degenerate UDG")
	}
	c, s := graph.NewCSR(g), NewScratch(g.N())
	for u := 0; u < g.N(); u += 17 {
		if !treeEdgesEqual(reference.KGreedy(g, u, 2), KGreedyCSR(c, s, u, 2)) {
			t.Fatalf("u=%d: lazy tree differs from eager", u)
		}
	}
}

func TestLazyTrivialCases(t *testing.T) {
	g := reference.Complete(5)
	if tr := KGreedyCSR(g, nil, 0, 3); len(tr.Nodes()) != 1 {
		t.Fatal("complete graph should give bare root")
	}
	s := reference.Star(6)
	tr := KGreedyCSR(s, nil, 1, 1)
	bad, err := reference.IsKConnDominatingTree(s, tr, 1, 0)
	if err != nil || bad != -1 {
		t.Fatalf("star leaf tree invalid: bad=%d err=%v", bad, err)
	}
}

// FuzzCSREquivalence decodes an arbitrary byte string into a graph and
// asserts the production builders match the map-based references on
// every root, both on the snapshot and, labelled by the original ids,
// on the snapshot permuted by the seed's permutation. Each byte pair
// (a, b) adds edge {a%n, b%n}.
func FuzzCSREquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 2, 3, 3, 4, 4, 0, 0, 2}, int64(1))
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 3, 4}, int64(2))
	f.Add([]byte{7, 3, 9, 1, 4, 4, 5, 8, 2, 6, 0, 9, 3, 3}, int64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		const n = 12
		g := graph.New(n)
		for i := 0; i+1 < len(data) && i < 64; i += 2 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u != v {
				g.AddEdge(u, v)
			}
		}
		c := graph.NewCSR(g)
		pc, order, rank := permute(c, rand.New(rand.NewSource(seed)))
		for _, p := range pairs() {
			s, ps := NewScratch(n), NewScratch(n)
			ps.SetLabels(order, rank)
			for u := 0; u < n; u++ {
				want := p.ref(g, u)
				got := p.csr(c, s, u)
				if !treeEdgesEqual(want, got) {
					t.Fatalf("%s: mismatch at root %d", p.name, u)
				}
				if pt := p.csr(pc, ps, int(rank[u])); !relabeledTreeEqual(got, pt, order) {
					t.Fatalf("%s: permuted run differs at root %d", p.name, u)
				}
			}
		}
	})
}

// permute returns c's vertices in a random order, its inverse, and c
// permuted by it with every row in c's neighbour order — the snapshot
// the batch construction builds on.
func permute(c *graph.CSR, rng *rand.Rand) (p *graph.CSR, order, rank []int32) {
	n := c.N()
	order, rank = make([]int32, n), make([]int32, n)
	for i, u := range rng.Perm(n) {
		order[i], rank[u] = int32(u), int32(i)
	}
	p = new(graph.CSR)
	c.PermuteInto(p, order, rank)
	return p, order, rank
}

// relabeledTreeEqual reports whether got, built on a snapshot permuted
// by order, becomes want when each of its vertices v is renamed
// order[v]: the same members and parents, inserted in the same order.
func relabeledTreeEqual(want, got *graph.Tree, order []int32) bool {
	wn, gn := want.Nodes(), got.Nodes()
	if len(wn) != len(gn) {
		return false
	}
	for i, v := range gn {
		p := got.Parent(int(v))
		if p >= 0 {
			p = int(order[p])
		}
		if order[v] != wn[i] || want.Parent(int(wn[i])) != p {
			return false
		}
	}
	return true
}

// TestLabelsUndoPermutation pins the labels of Scratch.SetLabels in
// every builder: run on a random permutation of the snapshot with the
// original ids as labels, each returns the identity run's tree mapped
// back, members, parents and insertion order. Grids and the UDG give
// the greedy heaps many equal gains; MISCSR runs on balls of at least
// n/4 (the dense placement) and smaller ones (the sorted runs), and
// the test fails unless both occur.
func TestLabelsUndoPermutation(t *testing.T) {
	type builder struct {
		name string
		r    int // MISCSR's radius; 0 for the others
		csr  func(c graph.View, s *Scratch, u int) *graph.Tree
	}
	var builders []builder
	for k := 1; k <= 3; k++ {
		builders = append(builders, builder{fmt.Sprintf("kgreedy-%d", k), 0,
			func(c graph.View, s *Scratch, u int) *graph.Tree { return KGreedyCSR(c, s, u, k) }})
	}
	for k := 1; k <= 2; k++ {
		builders = append(builders, builder{fmt.Sprintf("kmis-%d", k), 0,
			func(c graph.View, s *Scratch, u int) *graph.Tree { return KMISCSR(c, s, u, k) }})
	}
	for r := 2; r <= 4; r++ {
		builders = append(builders, builder{fmt.Sprintf("mis-r%d", r), r,
			func(c graph.View, s *Scratch, u int) *graph.Tree { return MISCSR(c, s, u, r) }})
	}
	for r := 2; r <= 3; r++ {
		for beta := 0; beta <= 1; beta++ {
			builders = append(builders, builder{fmt.Sprintf("greedy-r%d-b%d", r, beta), 0,
				func(c graph.View, s *Scratch, u int) *graph.Tree { return GreedyCSR(c, s, u, r, beta) }})
		}
	}
	rng := rand.New(rand.NewSource(26))
	families := map[string]*graph.Graph{
		"grid20x20":   gen.Grid(20, 20),
		"grid8x6":     gen.Grid(8, 6),
		"hypercube5":  gen.Hypercube(5),
		"petersen":    reference.Petersen(),
		"erdos-renyi": gen.ErdosRenyi(60, 0.08, rng),
		"udg":         randomUDG(250, 8, 1, rng),
		"ring200":     gen.Ring(200),
	}
	dense := map[bool]int{}
	bfs := graph.NewBFSScratch(400)
	for name, g := range families {
		c := graph.NewCSR(g)
		n := c.N()
		for trial := 0; trial < 2; trial++ {
			pc, order, rank := permute(c, rng)
			for _, b := range builders {
				s, ps := NewScratch(n), NewScratch(n)
				ps.SetLabels(order, rank)
				for u := 0; u < n; u++ {
					want := b.csr(c, s, u)
					got := b.csr(pc, ps, int(rank[u]))
					if !relabeledTreeEqual(want, got, order) {
						t.Fatalf("%s/%s trial %d: root %d's tree on the permuted snapshot is not its tree relabeled",
							name, b.name, trial, u)
					}
					if b.r > 0 {
						_, _, ball := bfs.BoundedView(c, u, b.r)
						dense[4*len(ball) >= n]++
					}
				}
			}
		}
	}
	if dense[true] == 0 || dense[false] == 0 {
		t.Fatalf("MISCSR ran %d dense and %d sparse balls; both placements must run", dense[true], dense[false])
	}
}
