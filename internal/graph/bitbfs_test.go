package graph

import (
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

func TestBitBFSGenericViewMatchesCSR(t *testing.T) {
	g := bitFamilies()["grid"]
	c := NewCSR(g)
	sc := NewBitScratch(g.N())
	sg := NewBitScratch(g.N())
	sc.SweepSourcesVisit(c, sourceRange(0, 64), nil)
	sg.SweepSourcesVisit(g, sourceRange(0, 64), nil) // *Graph takes the generic View path
	for v := 0; v < g.N(); v++ {
		if sc.Visited(v) != sg.Visited(v) {
			t.Fatalf("visited mask differs at %d", v)
		}
		for i := uint(0); i < 64; i++ {
			if bitDist(sc, i, v) != bitDist(sg, i, v) {
				t.Fatalf("dist(%d,%d) differs between CSR and generic sweeps", i, v)
			}
		}
	}
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
