package graph

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"remspan/internal/testutil"
)

// bitFamilies builds the generator families the batch engine is pinned
// against, without importing gen (which would cycle): path, ring, grid,
// star, a random sparse graph, and disconnected variants with isolated
// vertices.
func bitFamilies() map[string]*Graph {
	path := New(9)
	for i := 0; i < 8; i++ {
		path.AddEdge(i, i+1)
	}
	ring := New(70)
	for i := 0; i < 70; i++ {
		ring.AddEdge(i, (i+1)%70)
	}
	grid := New(100)
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			if x+1 < 10 {
				grid.AddEdge(y*10+x, y*10+x+1)
			}
			if y+1 < 10 {
				grid.AddEdge(y*10+x, (y+1)*10+x)
			}
		}
	}
	star := New(130)
	for i := 1; i < 130; i++ {
		star.AddEdge(0, i)
	}
	rng := rand.New(rand.NewSource(11))
	er := New(150)
	for i := 0; i < 380; i++ {
		u, v := rng.Intn(150), rng.Intn(150)
		if u != v {
			er.AddEdge(u, v)
		}
	}
	// Two components plus isolated vertices 20..24.
	disc := New(25)
	for i := 0; i < 9; i++ {
		disc.AddEdge(i, i+1)
	}
	for i := 10; i < 20; i++ {
		disc.AddEdge(10+(i-10+1)%10, i)
	}
	return map[string]*Graph{
		"path": path, "ring": ring, "grid": grid, "star": star,
		"er": er, "disconnected": disc,
	}
}

// sourceRange returns the count source ids base..base+count-1.
func sourceRange(base, count int) []int32 {
	src := make([]int32, count)
	for i := range src {
		src[i] = int32(base + i)
	}
	return src
}

// bitDist is source bit i's distance to v after a sweep on a scratch
// with distance rows, or Unreached.
func bitDist(s *BitScratch, i uint, v int) int32 {
	if s.Visited(v)&(uint64(1)<<i) == 0 {
		return Unreached
	}
	return s.Row(v)[i]
}

func TestBitBFSMatchesScalarOnFamilies(t *testing.T) {
	for name, g := range bitFamilies() {
		n := g.N()
		c := NewCSR(g)
		s := NewBitScratch(n)
		for base := 0; base < n; base += 64 {
			count := 64
			if base+count > n {
				count = n - base
			}
			s.SweepSourcesVisit(c, sourceRange(base, count), nil)
			for i := 0; i < count; i++ {
				want := BFS(g, base+i)
				for v := 0; v < n; v++ {
					if got := bitDist(s, uint(i), v); got != want[v] {
						t.Fatalf("%s: dist(%d,%d) = %d, want %d", name, base+i, v, got, want[v])
					}
				}
			}
		}
	}
}

func TestBitBFSReusedScratchAcrossGraphs(t *testing.T) {
	// One scratch serves many batches over different graphs — stale
	// state from a bigger, denser batch must not leak into a sparser one.
	fams := bitFamilies()
	s := NewBitScratch(150)
	for _, name := range []string{"er", "disconnected", "path", "star"} {
		g := fams[name]
		c := NewCSR(g)
		s.SweepSourcesVisit(c, sourceRange(0, min64(g.N())), nil)
		for i := 0; i < min64(g.N()); i++ {
			ref := BFS(g, i)
			for v := 0; v < g.N(); v++ {
				if got := bitDist(s, uint(i), v); got != ref[v] {
					t.Fatalf("%s after reuse: dist(%d,%d) = %d, want %d", name, i, v, got, ref[v])
				}
			}
		}
	}
}

func min64(n int) int {
	if n < 64 {
		return n
	}
	return 64
}

// TestBitSweepZeroAlloc pins the steady-state allocation guarantee of
// SweepSourcesVisit, the sweep MeasureProfile's shard runs: a warm
// scratch runs batches without allocating, with a nil and a bound
// visit, on a scratch with distance rows and on a masks-only one.
func TestBitSweepZeroAlloc(t *testing.T) {
	g := bitFamilies()["er"]
	c := NewCSR(g)
	lo, hi := sourceRange(0, 64), sourceRange(64, 64)
	var events int
	visit := func(v int32, newBits uint64, level int32) { events++ }
	for _, sc := range []struct {
		name string
		s    *BitScratch
	}{{"full", NewBitScratch(g.N())}, {"masks", NewBitScratchMasks(g.N())}} {
		for _, vc := range []struct {
			name  string
			visit func(v int32, newBits uint64, level int32)
		}{{"nil visit", nil}, {"bound visit", visit}} {
			s := sc.s
			s.SweepSourcesVisit(c, lo, vc.visit) // warm-up
			testutil.PinAllocs(t, sc.name+" scratch, "+vc.name, 20, func() {
				s.SweepSourcesVisit(c, hi, vc.visit)
				s.SweepSourcesVisit(c, lo, vc.visit)
			})
		}
	}
	if events == 0 {
		t.Fatal("bound visit never called")
	}
}

func BenchmarkBitSweep64(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	n := 4096
	g := New(n)
	for i := 0; i < 4*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	c := NewCSR(g)
	s := NewBitScratch(n)
	batches := make([][]int32, n/64)
	for i := range batches {
		batches[i] = sourceRange(i*64, 64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SweepSourcesVisit(c, batches[i%len(batches)], nil)
	}
}

func TestBatchOrderIsPartition(t *testing.T) {
	for name, g := range bitFamilies() {
		c := NewCSR(g)
		var s BatchOrderScratch
		order, starts := s.Order(c)
		order, starts = slices.Clone(order), slices.Clone(starts)
		if len(order) != g.N() {
			t.Fatalf("%s: order covers %d of %d vertices", name, len(order), g.N())
		}
		seen := make([]bool, g.N())
		for _, v := range order {
			if seen[v] {
				t.Fatalf("%s: vertex %d assigned twice", name, v)
			}
			seen[v] = true
		}
		if starts[0] != 0 || int(starts[len(starts)-1]) != len(order) {
			t.Fatalf("%s: starts endpoints %v", name, starts)
		}
		for b := 0; b < len(starts)-1; b++ {
			size := starts[b+1] - starts[b]
			if size < 1 || size > 64 {
				t.Fatalf("%s: batch %d has %d sources", name, b, size)
			}
		}
		// Determinism: a second run on the warm scratch must produce
		// the identical partition.
		order2, starts2 := s.Order(c)
		for i := range order {
			if order[i] != order2[i] {
				t.Fatalf("%s: order not deterministic at %d", name, i)
			}
		}
		for i := range starts {
			if starts[i] != starts2[i] {
				t.Fatalf("%s: starts not deterministic at %d", name, i)
			}
		}
	}
}

func TestSweepSourcesMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for name, g := range bitFamilies() {
		c := NewCSR(g)
		s := NewBitScratch(g.N())
		perm := rng.Perm(g.N())
		sources := make([]int32, min64(g.N()))
		for i := range sources {
			sources[i] = int32(perm[i])
		}
		s.SweepSourcesVisit(c, sources, nil)
		for i, u := range sources {
			want := BFS(g, int(u))
			for v := 0; v < g.N(); v++ {
				if got := bitDist(s, uint(i), v); got != want[v] {
					t.Fatalf("%s: dist(%d,%d) = %d, want %d", name, u, v, got, want[v])
				}
			}
		}
	}
}

// layeredGraph is a hub joined to a middle level of 100 vertices, each
// of 100 outer vertices joined to three random middle ones, with ids
// shuffled: a sweep from the hub or an outer vertex expands the whole
// middle level at once, a frontier past 64 vertices, and most vertices
// have several candidate parents one level closer.
func layeredGraph(rng *rand.Rand) *Graph {
	const mid, outer = 100, 100
	id := rng.Perm(1 + mid + outer)
	g := New(len(id))
	for i := 1; i <= mid; i++ {
		g.AddEdge(id[0], id[i])
	}
	for j := 0; j < outer; j++ {
		for k := 0; k < 3; k++ {
			g.AddEdge(id[1+mid+j], id[1+rng.Intn(mid)])
		}
	}
	return g
}

// TestSweepClaimMatchesScalar pins SweepClaim's events against scalar
// BFS from each source: every (source bit, vertex) pair the source
// reaches, other than the source itself, is claimed exactly once, at
// its BFS distance, through the smallest-id neighbour one level
// closer, and nothing else is claimed. The layered graph's sweeps
// expand frontiers of more than 64 vertices, which sortFrontier reads
// back from its VertexSet; the other families' frontiers are sorted by
// comparison.
func TestSweepClaimMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	fams := bitFamilies()
	fams["layered"] = layeredGraph(rng)
	type pair struct {
		bit int
		v   int32
	}
	for name, g := range fams {
		n := g.N()
		c := NewCSR(g)
		s := NewBitScratchMasks(n)
		sources := make([]int32, min64(n))
		for i, u := range rng.Perm(n)[:len(sources)] {
			sources[i] = int32(u)
		}
		got := make(map[pair][2]int32) // (x, level) of each claim
		s.Begin()
		for i, u := range sources {
			s.SeedFrontier(uint(i), int(u), 0)
		}
		s.SweepClaim(c, 1, func(x, v int32, newBits uint64, level int32) {
			for b := newBits; b != 0; b &= b - 1 {
				p := pair{bits.TrailingZeros64(b), v}
				if _, dup := got[p]; dup {
					t.Fatalf("%s: bit %d claimed vertex %d twice", name, p.bit, v)
				}
				got[p] = [2]int32{x, level}
			}
		})
		want, widest := 0, 0
		atLevel := make([]bool, n*n) // atLevel[l*n+v]: some source reaches v at level l
		for i, u := range sources {
			d := BFS(g, int(u))
			for v := range d {
				if d[v] == Unreached {
					continue
				}
				atLevel[int(d[v])*n+v] = true
				if int32(v) == u {
					continue
				}
				want++
				x := int32(-1)
				for _, w := range g.Neighbors(v) {
					if d[w] == d[v]-1 && (x < 0 || w < x) {
						x = w
					}
				}
				if c, ok := got[pair{i, int32(v)}]; !ok || c != [2]int32{x, d[v]} {
					t.Fatalf("%s: bit %d (source %d) at %d: claim %v (seen %v), want (x %d, level %d)",
						name, i, u, v, c, ok, x, d[v])
				}
			}
		}
		if len(got) != want {
			t.Fatalf("%s: %d claims, want %d", name, len(got), want)
		}
		for l := 0; l < n; l++ {
			k := 0
			for _, at := range atLevel[l*n : (l+1)*n] {
				if at {
					k++
				}
			}
			widest = max(widest, k)
		}
		if name == "layered" && widest <= 64 {
			t.Fatalf("layered: widest expanded frontier %d, want > 64", widest)
		}
	}
}
