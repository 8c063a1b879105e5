package domtree

import (
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
	if a.Root() != b.Root() || a.Size() != b.Size() || a.EdgeCount() != b.EdgeCount() {
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
		"star12":    gen.Star(12),
		"complete9": gen.Complete(9),
		"grid5x6":   gen.Grid(5, 6),
		"petersen":  gen.Petersen(),
		"hypercube": gen.Hypercube(4),
		"barbell":   gen.Barbell(5, 3),
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
		checkAllRoots(t, "gnm", gen.GNM(36, 90, rng))
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
	g := gen.Complete(5)
	if tr := KGreedyCSR(g, nil, 0, 3); tr.Size() != 1 {
		t.Fatal("complete graph should give bare root")
	}
	s := gen.Star(6)
	tr := KGreedyCSR(s, nil, 1, 1)
	bad, err := reference.IsKConnDominatingTree(s, tr, 1, 0)
	if err != nil || bad != -1 {
		t.Fatalf("star leaf tree invalid: bad=%d err=%v", bad, err)
	}
}

// FuzzCSREquivalence decodes an arbitrary byte string into a graph and
// asserts the production builders match the map-based references on
// every root. Each byte pair (a, b) adds edge {a%n, b%n}.
func FuzzCSREquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 2, 3, 3, 4, 4, 0, 0, 2})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 3, 4})
	f.Add([]byte{7, 3, 9, 1, 4, 4, 5, 8, 2, 6, 0, 9, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 12
		g := graph.New(n)
		for i := 0; i+1 < len(data) && i < 64; i += 2 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u != v {
				g.AddEdge(u, v)
			}
		}
		c := graph.NewCSR(g)
		for _, p := range pairs() {
			s := NewScratch(n)
			for u := 0; u < n; u++ {
				want := p.ref(g, u)
				got := p.csr(c, s, u)
				if !treeEdgesEqual(want, got) {
					t.Fatalf("%s: mismatch at root %d", p.name, u)
				}
			}
		}
	})
}
