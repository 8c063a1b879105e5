package dynamic

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"remspan/internal/domtree"
	"remspan/internal/gen"
	"remspan/internal/graph"
	"remspan/internal/reference"
	"remspan/internal/spanner"
	"remspan/internal/testutil"
)

func kgreedyBuilder(k int) TreeBuilder {
	return func(c graph.View, s *domtree.Scratch, u int) *graph.Tree {
		return domtree.KGreedyCSR(c, s, u, k)
	}
}

func misBuilder(r int) TreeBuilder {
	return func(c graph.View, s *domtree.Scratch, u int) *graph.Tree {
		return domtree.MISCSR(c, s, u, r)
	}
}

// fullSpanner recomputes the union-of-trees spanner from scratch.
func fullSpanner(g *graph.Graph, build TreeBuilder) *graph.EdgeSet {
	var edges [][2]int32
	c := graph.NewCSR(g)
	s := domtree.NewScratch(g.N())
	for u := 0; u < g.N(); u++ {
		edges = append(edges, build(c, s, u).Edges()...)
	}
	return graph.NewEdgeSet(g.N(), edges)
}

func edgesEqual(a, b *graph.EdgeSet) bool {
	if a.Len() != b.Len() {
		return false
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return true
}

// applyOne runs one change through ApplyBatch, the maintainer's entry
// point, and reports whether it had an effect. v is ignored for
// FailVertex.
func applyOne(m *Maintainer, kind Kind, u, v int) bool {
	one := [1]Change{{Kind: kind, U: u, V: v}}
	return m.ApplyBatch(one[:]) == 1
}

// patch applies ch to the reference graph g and reports whether it had
// an effect.
func patch(g *graph.Graph, ch Change) bool {
	switch ch.Kind {
	case AddEdge:
		return g.AddEdge(ch.U, ch.V)
	case RemoveEdge:
		return g.RemoveEdge(ch.U, ch.V)
	}
	nbrs := slices.Clone(g.Neighbors(ch.U))
	for _, v := range nbrs {
		g.RemoveEdge(ch.U, int(v))
	}
	return len(nbrs) > 0
}

// shadowed is a maintainer beside the test's own copy of G, a
// *graph.Graph every change is patched into as well: the oracle the
// equivalence tests check the maintainer's graph and spanner against,
// so a change the maintainer mishandles cannot hide in the graph the
// expected spanner is computed from.
type shadowed struct {
	m     *Maintainer
	g     *graph.Graph
	build TreeBuilder
}

func newShadowed(g *graph.Graph, radius int, build TreeBuilder) *shadowed {
	return &shadowed{m: New(g, radius, build), g: g.Clone(), build: build}
}

// patch applies batch to the shadow alone, for tests that drive the
// maintainer through Apply and Rebuild themselves, and returns the
// number of changes that had an effect.
func (s *shadowed) patch(batch []Change) int {
	applied := 0
	for _, ch := range batch {
		if patch(s.g, ch) {
			applied++
		}
	}
	return applied
}

// apply runs batch through ApplyBatch and patches it into the shadow;
// both must agree on how many changes had an effect.
func (s *shadowed) apply(t *testing.T, batch ...Change) int {
	t.Helper()
	applied := s.m.ApplyBatch(batch)
	if want := s.patch(batch); applied != want {
		t.Fatalf("ApplyBatch applied %d of %v, the shadow %d", applied, batch, want)
	}
	return applied
}

// check fails unless the maintainer's graph equals the shadow and its
// spanner equals a full recomputation on the shadow.
func (s *shadowed) check(t *testing.T, what string) {
	t.Helper()
	if !reference.Equal(s.g, s.m.View()) {
		t.Fatalf("%s: maintained graph diverged from the shadow", what)
	}
	if !edgesEqual(s.m.Spanner(), fullSpanner(s.g, s.build)) {
		t.Fatalf("%s: spanner diverged from full recomputation", what)
	}
}

func TestIncrementalMatchesFullMPR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 6; trial++ {
		g := gen.RandomTree(25, rng)
		for i := 0; i < 40; i++ {
			u, v := rng.Intn(25), rng.Intn(25)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		s := newShadowed(g, 1, kgreedyBuilder(1))
		for step := 0; step < 25; step++ {
			u, v := rng.Intn(25), rng.Intn(25)
			if u == v {
				continue
			}
			if rng.Intn(2) == 0 {
				s.apply(t, Change{Kind: AddEdge, U: u, V: v})
			} else if s.g.HasEdge(u, v) && s.g.Degree(u) > 1 && s.g.Degree(v) > 1 {
				s.apply(t, Change{Kind: RemoveEdge, U: u, V: v})
			}
			s.check(t, fmt.Sprintf("trial %d step %d", trial, step))
		}
	}
}

func TestIncrementalMatchesFullMIS(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := gen.RandomTree(30, rng)
	for i := 0; i < 60; i++ {
		u, v := rng.Intn(30), rng.Intn(30)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	r := 3
	s := newShadowed(g, r, misBuilder(r)) // β=1 → R = r
	for step := 0; step < 20; step++ {
		u, v := rng.Intn(30), rng.Intn(30)
		if u == v {
			continue
		}
		kind := AddEdge
		if rng.Intn(2) != 0 {
			kind = RemoveEdge
		}
		s.apply(t, Change{Kind: kind, U: u, V: v})
		s.check(t, fmt.Sprintf("step %d", step))
	}
}

func TestIncrementalSpannerStaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.RandomTree(30, rng)
	for i := 0; i < 70; i++ {
		u, v := rng.Intn(30), rng.Intn(30)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	s := newShadowed(g, 1, kgreedyBuilder(1))
	for step := 0; step < 15; step++ {
		u, v := rng.Intn(30), rng.Intn(30)
		if u != v {
			s.apply(t, Change{Kind: AddEdge, U: u, V: v})
		}
		h := s.m.Spanner().Graph()
		if viol := spanner.Check(s.g, h, spanner.NewStretch(1, 0)); viol != nil {
			t.Fatalf("step %d: %v", step, viol)
		}
	}
}

func TestIncrementalRebuildsFewTrees(t *testing.T) {
	// On a large sparse graph a single edge change must rebuild far
	// fewer than n trees.
	rng := rand.New(rand.NewSource(4))
	g := gen.Grid(20, 20) // 400 nodes, degree ≤ 4
	m := New(g, 1, kgreedyBuilder(1))
	base := m.TreesRebuilt()
	if base != 400 {
		t.Fatalf("initial build rebuilt %d trees", base)
	}
	for i := 0; i < 10; i++ {
		u := rng.Intn(399)
		applyOne(m, AddEdge, u, u+1) // mostly no-ops (already edges) plus some diagonals
		applyOne(m, AddEdge, rng.Intn(400), rng.Intn(400))
	}
	delta := m.TreesRebuilt() - base
	if delta == 0 {
		t.Fatal("no rebuilds recorded")
	}
	if delta > 400 {
		t.Fatalf("rebuilt %d trees for 20 local changes — locality lost", delta)
	}
}

func TestNoopChanges(t *testing.T) {
	g := gen.Ring(10)
	m := New(g, 1, kgreedyBuilder(1))
	base := m.TreesRebuilt()
	if applyOne(m, AddEdge, 0, 1) {
		t.Fatal("duplicate edge added")
	}
	if applyOne(m, RemoveEdge, 3, 7) {
		t.Fatal("phantom edge removed")
	}
	if m.TreesRebuilt() != base {
		t.Fatal("no-op changes triggered rebuilds")
	}
}

func TestFailVertexMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		g := gen.RandomTree(25, rng)
		for i := 0; i < 50; i++ {
			u, v := rng.Intn(25), rng.Intn(25)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		s := newShadowed(g, 1, kgreedyBuilder(1))
		x := rng.Intn(25)
		if applied := s.apply(t, Change{Kind: FailVertex, U: x}) == 1; applied != (g.Degree(x) > 0) {
			t.Fatalf("failing a vertex of degree %d: applied = %v", g.Degree(x), applied)
		}
		if s.m.View().Degree(x) != 0 {
			t.Fatal("vertex still has edges")
		}
		s.check(t, fmt.Sprintf("trial %d: post-failure", trial))
		// Second failure of the same vertex is a no-op.
		base := s.m.TreesRebuilt()
		if applyOne(s.m, FailVertex, x, 0) || s.m.TreesRebuilt() != base {
			t.Fatal("re-failing an isolated vertex did work")
		}
	}
}

func TestBadRadiusPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(gen.Ring(5), 0, kgreedyBuilder(1))
}

func greedyBuilder(r, beta int) TreeBuilder {
	return func(c graph.View, s *domtree.Scratch, u int) *graph.Tree {
		return domtree.GreedyCSR(c, s, u, r, beta)
	}
}

func kmisBuilder(k int) TreeBuilder {
	return func(c graph.View, s *domtree.Scratch, u int) *graph.Tree {
		return domtree.KMISCSR(c, s, u, k)
	}
}

// allBuilders is the canonical production builder/radius table shared
// with the churn benchmarks.
func allBuilders() []BuilderSpec { return Builders() }

// ball returns B(src, d) in g, by the reference BFS.
func ball(g *graph.Graph, src, d int) map[int32]struct{} {
	out := make(map[int32]struct{})
	for w, dw := range graph.BFS(g, src) {
		if dw != graph.Unreached && int(dw) <= d {
			out[int32(w)] = struct{}{}
		}
	}
	return out
}

// TestFailVertexDirtySweepEqualsUnion pins the single-sweep dirty set of
// FailVertex: B(x, R+1) must equal the per-incident-edge union
// ∪_{v∈N(x)} (B(x,R) ∪ B(v,R)) the maintainer used to compute with
// deg(x) separate sweeps.
func TestFailVertexDirtySweepEqualsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		g := gen.RandomTree(40, rng)
		for i := 0; i < 30; i++ {
			u, v := rng.Intn(40), rng.Intn(40)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		x := rng.Intn(40)
		if g.Degree(x) == 0 {
			continue
		}
		for radius := 1; radius <= 3; radius++ {
			union := ball(g, x, radius)
			for _, v := range g.Neighbors(x) {
				for w := range ball(g, int(v), radius) {
					union[w] = struct{}{}
				}
			}
			sweep := ball(g, x, radius+1)
			if len(sweep) != len(union) {
				t.Fatalf("trial %d R=%d: sweep %d vs union %d roots", trial, radius, len(sweep), len(union))
			}
			for w := range union {
				if _, ok := sweep[w]; !ok {
					t.Fatalf("trial %d R=%d: root %d in per-edge union, not in sweep", trial, radius, w)
				}
			}
		}
	}
}

// TestEdgeDirtySweepIgnoresPatchOrder pins the edge changes' dirty
// set: B(u, R) ∪ B(v, R) is the same set with and without the edge
// {u, v}, so the maintainer may sweep it after the patch for
// insertions and deletions alike, and its dirty roots equal that union
// on the graph before the change and on the graph after it.
func TestEdgeDirtySweepIgnoresPatchOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	union := func(g *graph.Graph, u, v, radius int) []int32 {
		set := ball(g, u, radius)
		for w := range ball(g, v, radius) {
			set[w] = struct{}{}
		}
		out := make([]int32, 0, len(set))
		for w := range set {
			out = append(out, w)
		}
		slices.Sort(out)
		return out
	}
	kinds := [2]int{}
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(57)
		g := gen.RandomTree(n, rng)
		for i := rng.Intn(n); i > 0; i-- {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		ch := Change{Kind: AddEdge, U: u, V: v}
		if g.HasEdge(u, v) {
			ch.Kind = RemoveEdge
		}
		kinds[ch.Kind]++
		after := g.Clone()
		patch(after, ch)
		for radius := 1; radius <= 4; radius++ {
			want := union(g, u, v, radius)
			if post := union(after, u, v, radius); !slices.Equal(post, want) {
				t.Fatalf("trial %d %v R=%d: union %v after the change, %v before", trial, ch, radius, post, want)
			}
			m := New(g, radius, kgreedyBuilder(1))
			if m.Apply([]Change{ch}) != 1 {
				t.Fatalf("trial %d %v: change had no effect", trial, ch)
			}
			if got := m.DirtyRoots(); !slices.Equal(got, want) {
				t.Fatalf("trial %d %v R=%d: dirty roots %v, want %v", trial, ch, radius, got, want)
			}
		}
	}
	if kinds[AddEdge] == 0 || kinds[RemoveEdge] == 0 {
		t.Fatalf("trials covered %d insertions and %d deletions, want both", kinds[AddEdge], kinds[RemoveEdge])
	}
}

// TestChangeOutOfRangePanics: a change naming a vertex outside [0, n)
// panics with the graph package's range message, for every change
// kind, and leaves nothing applied.
func TestChangeOutOfRangePanics(t *testing.T) {
	for _, ch := range []Change{
		{Kind: AddEdge, U: 0, V: 99},
		{Kind: RemoveEdge, U: 99, V: 0},
		{Kind: FailVertex, U: 99},
	} {
		m := New(gen.Ring(9), 1, kgreedyBuilder(1))
		const want = "graph: vertex 99 out of range [0,9)"
		if got := testutil.PanicWithin(t, 5*time.Second, func() { m.ApplyBatch([]Change{ch}) }); got != want {
			t.Fatalf("%v: panic %q, want %q", ch, got, want)
		}
		if !reference.Equal(m.View(), gen.Ring(9)) {
			t.Fatalf("%v: the graph changed", ch)
		}
	}
}

// TestApplyBatchMatchesFull drives mixed batches through every builder
// and asserts the maintained spanner stays bit-identical to a full
// recomputation on the final graph.
func TestApplyBatchMatchesFull(t *testing.T) {
	for _, bb := range allBuilders() {
		t.Run(bb.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			g := gen.RandomTree(60, rng)
			for i := 0; i < 120; i++ {
				u, v := rng.Intn(60), rng.Intn(60)
				if u != v {
					g.AddEdge(u, v)
				}
			}
			s := newShadowed(g, bb.Radius, bb.Build)
			for round := 0; round < 6; round++ {
				batch := make([]Change, 0, 12)
				for i := 0; i < 12; i++ {
					u, v := rng.Intn(60), rng.Intn(60)
					switch {
					case i == 7 && round%2 == 0:
						batch = append(batch, Change{Kind: FailVertex, U: u})
					case u != v && s.g.HasEdge(u, v) && rng.Intn(2) == 0:
						batch = append(batch, Change{Kind: RemoveEdge, U: u, V: v})
					case u != v:
						batch = append(batch, Change{Kind: AddEdge, U: u, V: v})
					}
				}
				s.apply(t, batch...)
				s.check(t, fmt.Sprintf("round %d: batch", round))
			}
		})
	}
}

// TestApplyBatchRebuildsUnionOnce: a batch of overlapping changes must
// rebuild each dirty root once, i.e. strictly fewer rebuilds than the
// same changes applied one at a time.
func TestApplyBatchRebuildsUnionOnce(t *testing.T) {
	g := gen.Grid(12, 12)
	mk := func() *Maintainer { return New(g, 1, kgreedyBuilder(1)) }
	changes := []Change{
		{Kind: AddEdge, U: 0, V: 25},
		{Kind: AddEdge, U: 1, V: 26},
		{Kind: RemoveEdge, U: 0, V: 25},
		{Kind: AddEdge, U: 2, V: 27},
	}
	batched := mk()
	base := batched.TreesRebuilt()
	if got := batched.ApplyBatch(changes); got != len(changes) {
		t.Fatalf("applied %d of %d", got, len(changes))
	}
	batchRebuilds := batched.TreesRebuilt() - base

	serial := mk()
	base = serial.TreesRebuilt()
	for _, ch := range changes {
		serial.ApplyBatch([]Change{ch})
	}
	serialRebuilds := serial.TreesRebuilt() - base

	if batchRebuilds >= serialRebuilds {
		t.Fatalf("batch rebuilt %d trees, serial %d — union did not dedupe", batchRebuilds, serialRebuilds)
	}
	if !edgesEqual(batched.Spanner(), serial.Spanner()) {
		t.Fatal("batched and serial spanners diverged")
	}
}

// TestChurnEquivalenceAllBuilders is the randomized churn-equivalence
// driver: mixed AddEdge/RemoveEdge/FailVertex/ApplyBatch against a
// from-scratch rebuild after every step, for all four tree builders,
// on the patched-delta view (the maintainer's only view; the
// snapshot-per-change ablation arm lives in the benchmarks).
func TestChurnEquivalenceAllBuilders(t *testing.T) {
	for _, bb := range allBuilders() {
		t.Run(bb.Name+"/delta", func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			g := gen.RandomTree(36, rng)
			for i := 0; i < 60; i++ {
				u, v := rng.Intn(36), rng.Intn(36)
				if u != v {
					g.AddEdge(u, v)
				}
			}
			s := newShadowed(g, bb.Radius, bb.Build)
			for step := 0; step < 18; step++ {
				u, v := rng.Intn(36), rng.Intn(36)
				switch rng.Intn(4) {
				case 0:
					if u != v {
						s.apply(t, Change{Kind: AddEdge, U: u, V: v})
					}
				case 1:
					if u != v {
						s.apply(t, Change{Kind: RemoveEdge, U: u, V: v})
					}
				case 2:
					s.apply(t, Change{Kind: FailVertex, U: u})
				default:
					batch := make([]Change, 0, 6)
					for i := 0; i < 6; i++ {
						a, b := rng.Intn(36), rng.Intn(36)
						if a == b {
							continue
						}
						kind := AddEdge
						if s.g.HasEdge(a, b) && rng.Intn(2) == 0 {
							kind = RemoveEdge
						}
						batch = append(batch, Change{Kind: kind, U: a, V: b})
					}
					s.apply(t, batch...)
				}
				s.check(t, fmt.Sprintf("step %d", step))
			}
		})
	}
}

// churnBatch draws a mixed batch over m's graph: edge toggles, repeated
// pairs, no-op adds and removes, and one vertex failure.
func churnBatch(m *Maintainer, rng *rand.Rand, size int) []Change {
	n := m.View().N()
	batch := make([]Change, 0, size+2)
	for len(batch) < size {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		kind := AddEdge
		if m.View().HasEdge(u, v) && rng.Intn(2) == 0 {
			kind = RemoveEdge
		}
		batch = append(batch, Change{Kind: kind, U: u, V: v})
	}
	batch = append(batch, batch[0]) // repeated pair: the second is a no-op
	return append(batch, Change{Kind: FailVertex, U: rng.Intn(n)})
}

// TestApplyRebuildMatchesApplyBatch pins ApplyBatch's decomposition:
// Apply followed by Rebuild(DirtyRoots()) leaves the same trees,
// spanner and TreesRebuilt as ApplyBatch, for every builder.
func TestApplyRebuildMatchesApplyBatch(t *testing.T) {
	for _, bb := range allBuilders() {
		rng := rand.New(rand.NewSource(41))
		g := gen.RandomTree(80, rng)
		for i := 0; i < 140; i++ {
			g.AddEdge(rng.Intn(80), rng.Intn(80))
		}
		whole, split := New(g, bb.Radius, bb.Build), New(g, bb.Radius, bb.Build)
		crng := rand.New(rand.NewSource(42))
		for round := 0; round < 8; round++ {
			batch := churnBatch(whole, crng, 10)
			a := whole.ApplyBatch(batch)
			b := split.Apply(batch)
			split.Rebuild(split.DirtyRoots())
			if a != b {
				t.Fatalf("%s round %d: ApplyBatch applied %d, Apply %d", bb.Name, round, a, b)
			}
			if whole.TreesRebuilt() != split.TreesRebuilt() {
				t.Fatalf("%s round %d: TreesRebuilt %d vs %d", bb.Name, round, whole.TreesRebuilt(), split.TreesRebuilt())
			}
			if !edgesEqual(whole.Spanner(), split.Spanner()) {
				t.Fatalf("%s round %d: spanners differ", bb.Name, round)
			}
			for u := 0; u < g.N(); u++ {
				if !slices.Equal(whole.TreeOf(u), split.TreeOf(u)) {
					t.Fatalf("%s round %d: tree of %d differs", bb.Name, round, u)
				}
			}
		}
	}
}

// TestRebuildReturnsChangedRoots: Rebuild returns exactly the roots it
// rebuilt whose tree differs from a copy taken before the batch, in the
// order given, and roots left out keep their old trees. The dirty union
// is rebuilt in two halves, the way a lossy re-advertisement channel
// defers some roots, and the maintainer still ends at the full
// recomputation.
func TestRebuildReturnsChangedRoots(t *testing.T) {
	for _, bb := range allBuilders() {
		rng := rand.New(rand.NewSource(43))
		g := gen.RandomTree(70, rng)
		for i := 0; i < 110; i++ {
			g.AddEdge(rng.Intn(70), rng.Intn(70))
		}
		s := newShadowed(g, bb.Radius, bb.Build)
		m := s.m
		crng := rand.New(rand.NewSource(44))
		sawChange := false
		for round := 0; round < 6; round++ {
			before := treesOf(m)
			batch := churnBatch(m, crng, 8)
			if applied, want := m.Apply(batch), s.patch(batch); applied != want {
				t.Fatalf("%s round %d: Apply applied %d, the shadow %d", bb.Name, round, applied, want)
			}
			dirty := slices.Clone(m.DirtyRoots())
			halves := [][]int32{dirty[:len(dirty)/2], dirty[len(dirty)/2:]}
			for h, roots := range halves {
				got := slices.Clone(m.Rebuild(roots))
				var want []int32
				for _, u := range roots {
					if !slices.Equal(before[u], m.TreeOf(int(u))) {
						want = append(want, u)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s round %d half %d: Rebuild returned %v, want %v", bb.Name, round, h, got, want)
				}
				sawChange = sawChange || len(got) > 0
				if h == 0 {
					for _, u := range halves[1] {
						if !slices.Equal(before[u], m.TreeOf(int(u))) {
							t.Fatalf("%s round %d: root %d rebuilt before it was passed to Rebuild", bb.Name, round, u)
						}
					}
				}
			}
			s.check(t, fmt.Sprintf("%s round %d", bb.Name, round))
		}
		if !sawChange {
			t.Fatalf("%s: no rebuild changed a tree — vacuous run", bb.Name)
		}
	}
}

// TestTouchedIsChangedNeighborLists: after Apply, Touched lists exactly
// the vertices whose neighbor list some change of the batch changed —
// both endpoints of every effective edge change, a failed vertex and
// every former neighbor of it — sorted and unique. A batch with no
// effect leaves it empty.
func TestTouchedIsChangedNeighborLists(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	g := gen.RandomTree(60, rng)
	for i := 0; i < 90; i++ {
		g.AddEdge(rng.Intn(60), rng.Intn(60))
	}
	m := New(g, 1, kgreedyBuilder(1))
	crng := rand.New(rand.NewSource(46))
	for round := 0; round < 10; round++ {
		batch := churnBatch(m, crng, 6)
		// Replay the batch on a copy, one change at a time, and record
		// every vertex whose neighbor list the change altered.
		shadow := m.Graph()
		changed := make(map[int32]bool)
		for _, ch := range batch {
			before := make([][]int32, shadow.N())
			for v := range before {
				before[v] = slices.Clone(shadow.Neighbors(v))
			}
			switch ch.Kind {
			case AddEdge:
				shadow.AddEdge(ch.U, ch.V)
			case RemoveEdge:
				shadow.RemoveEdge(ch.U, ch.V)
			case FailVertex:
				for _, v := range slices.Clone(shadow.Neighbors(ch.U)) {
					shadow.RemoveEdge(ch.U, int(v))
				}
			}
			for v := range before {
				if !slices.Equal(before[v], shadow.Neighbors(v)) {
					changed[int32(v)] = true
				}
			}
		}
		want := make([]int32, 0, len(changed))
		for v := range changed {
			want = append(want, v)
		}
		slices.Sort(want)
		m.Apply(batch)
		if got := m.Touched(); !slices.Equal(got, want) {
			t.Fatalf("round %d: Touched %v, want %v", round, got, want)
		}
		m.Rebuild(m.DirtyRoots())
	}

	// A no-op batch: re-add an existing edge, remove an absent one,
	// fail an isolated vertex (each round above failed one).
	view := m.View()
	x, iso := 0, 0
	for view.Degree(x) == 0 {
		x++
	}
	for view.Degree(iso) > 0 {
		iso++
	}
	y := (x + 1) % g.N()
	for view.HasEdge(x, y) || y == x {
		y = (y + 1) % g.N()
	}
	noop := []Change{
		{Kind: AddEdge, U: x, V: int(view.Neighbors(x)[0])},
		{Kind: RemoveEdge, U: x, V: y},
		{Kind: FailVertex, U: iso},
	}
	if m.Apply(noop) != 0 {
		t.Fatal("no-op batch applied changes")
	}
	if len(m.Touched()) != 0 || len(m.DirtyRoots()) != 0 {
		t.Fatalf("no-op batch touched %v and dirtied %v", m.Touched(), m.DirtyRoots())
	}
}

// TestNewRejectsTreeDeeperThanRadius: New panics when the builder's
// trees are deeper than the locality radius — their members would lie
// outside the R-ball the dirty-root rule repairs. MIS with r=3 needs
// radius 3; the gadget (the distributed simulator's depth-invariant
// graph) forces a depth-3 tree member at root 0 under radius 2.
func TestNewRejectsTreeDeeperThanRadius(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a tree deeper than the locality radius")
		}
	}()
	g := graph.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 3}, {3, 4}})
	New(g, 2, misBuilder(3))
}

// TestMaintainerTraceDeterministic: the same change sequence must yield
// the same TreesRebuilt trace (dirty roots rebuild in sorted order).
func TestMaintainerTraceDeterministic(t *testing.T) {
	run := func() []int64 {
		g := gen.Grid(10, 10)
		m := New(g, 1, kgreedyBuilder(1))
		var trace []int64
		for i := 0; i < 8; i++ {
			applyOne(m, AddEdge, i*7%100, (i*13+29)%100)
			trace = append(trace, m.TreesRebuilt())
		}
		m.ApplyBatch([]Change{{Kind: FailVertex, U: 55}, {Kind: AddEdge, U: 3, V: 87}})
		return append(trace, m.TreesRebuilt())
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverged at %d: %v vs %v", i, a, b)
		}
	}
}

// TestMaintainerSteadyStateAllocs guards the snapshot-free guarantee:
// toggling one edge on a warm maintainer must not allocate at all —
// in particular nothing proportional to n.
func TestMaintainerSteadyStateAllocs(t *testing.T) {
	g := gen.Grid(40, 50) // n=2000
	m := New(g, 1, kgreedyBuilder(1))
	applyOne(m, AddEdge, 0, 41) // warm the rows and buffers
	applyOne(m, RemoveEdge, 0, 41)
	applyOne(m, AddEdge, 0, 41)
	applyOne(m, RemoveEdge, 0, 41)
	testutil.PinAllocs(t, "steady-state edge toggle", 50, func() {
		applyOne(m, AddEdge, 0, 41)
		applyOne(m, RemoveEdge, 0, 41)
	})
}

// FuzzChurnEquivalence feeds arbitrary change scripts to the maintainer
// and cross-checks full recomputation for every builder family.
func FuzzChurnEquivalence(f *testing.F) {
	f.Add([]byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xab})
	f.Add([]byte{0xff, 0x00, 0x10, 0x32, 0x54})
	f.Add([]byte("churn me"))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 24 {
			script = script[:24]
		}
		const n = 18
		rng := rand.New(rand.NewSource(7))
		g := gen.RandomTree(n, rng)
		for i := 0; i < 20; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		for _, bb := range allBuilders() {
			s := newShadowed(g, bb.Radius, bb.Build)
			var batch []Change
			for i := 0; i+1 < len(script); i += 2 {
				a, b := int(script[i]), int(script[i+1])
				ch := Change{Kind: Kind(a % 3), U: b % n, V: (a / 3) % n}
				if a%4 == 3 {
					batch = append(batch, ch)
					continue
				}
				s.apply(t, ch)
				s.check(t, bb.Name+": fuzzed change")
			}
			s.apply(t, batch...)
			s.check(t, bb.Name+": fuzzed batch")
		}
	})
}
