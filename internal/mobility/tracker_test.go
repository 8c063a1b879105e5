package mobility

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"remspan/internal/reference"
	"remspan/internal/testutil"
)

// trackerProcs returns the GOMAXPROCS values a tracker width test
// sweeps: serial, minimal parallel, a prime that never divides the
// shard count evenly, and the host width.
func trackerProcs() []int {
	ps := []int{1, 2, 7}
	if p := runtime.GOMAXPROCS(0); !slices.Contains(ps, p) {
		ps = append(ps, p)
	}
	return ps
}

// fannedOutTracker returns a tracker over a fleet of several shards, so
// that its ticks fan out above GOMAXPROCS 1, at mean degree 8.
func fannedOutTracker(seed int64, minSpeed, maxSpeed float64) (*Waypoint, *Tracker) {
	const n = 2*shardNodes + shardNodes/2 // three shards, the last one short
	side := math.Sqrt(math.Pi * n / 8)
	w := NewWaypoint(n, side, minSpeed, maxSpeed, rand.New(rand.NewSource(seed)))
	return w, NewTracker(w, 1.0)
}

// checkLexSorted fails unless every pair of d has u < v and the pairs
// ascend lexicographically, as Tick promises.
func checkLexSorted(t *testing.T, what string, d [][2]int32) {
	t.Helper()
	for i, p := range d {
		if p[0] >= p[1] {
			t.Fatalf("%s: pair %d = %v does not have u < v", what, i, p)
		}
		if i > 0 && (d[i-1][0] > p[0] || d[i-1][0] == p[0] && d[i-1][1] >= p[1]) {
			t.Fatalf("%s: pair %d = %v follows %v out of order", what, i, p, d[i-1])
		}
	}
}

// TestTrackerMatchesUnitDiskGraph: after every tick the tracker's
// adjacency must equal the from-scratch unit-disk graph of the current
// positions, on a small fleet (one shard) and on a fanned-out one at
// every swept width.
func TestTrackerMatchesUnitDiskGraph(t *testing.T) {
	check := func(name string, w *Waypoint, tr *Tracker, ticks int) {
		for tick := 0; tick < ticks; tick++ {
			added, removed := tr.Tick()
			checkLexSorted(t, fmt.Sprintf("%s tick %d added", name, tick), added)
			checkLexSorted(t, fmt.Sprintf("%s tick %d removed", name, tick), removed)
			want := w.Graph(1.0)
			if got := tr.Graph(); !reference.Equal(got, want) {
				t.Fatalf("%s tick %d: tracker adjacency diverged (m=%d want %d)",
					name, tick, got.M(), want.M())
			}
		}
	}
	w := NewWaypoint(200, 8, 0.05, 0.3, rand.New(rand.NewSource(1)))
	check("n=200", w, NewTracker(w, 1.0), 15)
	for _, procs := range trackerProcs() {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			w, tr := fannedOutTracker(1, 0.05, 0.3)
			check(fmt.Sprintf("n=%d GOMAXPROCS=%d", w.N(), procs), w, tr, 8)
		}()
	}
}

// TestTrackerDiffsReplay: applying the emitted diffs to the initial
// graph must reproduce the current graph exactly, and every width must
// emit the same diff stream as GOMAXPROCS 1.
func TestTrackerDiffsReplay(t *testing.T) {
	replay := func(name string, tr *Tracker, ticks int) [][][2]int32 {
		var stream [][][2]int32
		g := tr.Graph()
		for tick := 0; tick < ticks; tick++ {
			added, removed := tr.Tick()
			for _, p := range removed {
				if !g.RemoveEdge(int(p[0]), int(p[1])) {
					t.Fatalf("%s tick %d: removed edge {%d,%d} was absent", name, tick, p[0], p[1])
				}
			}
			for _, p := range added {
				if !g.AddEdge(int(p[0]), int(p[1])) {
					t.Fatalf("%s tick %d: added edge {%d,%d} already present", name, tick, p[0], p[1])
				}
			}
			stream = append(stream, slices.Clone(added), slices.Clone(removed))
		}
		if !reference.Equal(g, tr.Graph()) {
			t.Fatalf("%s: replayed diffs diverged from tracker graph", name)
		}
		return stream
	}
	w := NewWaypoint(150, 7, 0.05, 0.25, rand.New(rand.NewSource(2)))
	replay("n=150", NewTracker(w, 1.0), 20)
	var want [][][2]int32
	for _, procs := range trackerProcs() {
		got := func() [][][2]int32 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			_, tr := fannedOutTracker(2, 0.05, 0.25)
			return replay(fmt.Sprintf("fanned out GOMAXPROCS=%d", procs), tr, 12)
		}()
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if !slices.Equal(want[i], got[i]) {
				t.Fatalf("GOMAXPROCS=%d: diff %d of the stream differs from GOMAXPROCS=1", procs, i)
			}
		}
	}
}

// TestTrackerSteadyStateAllocs: warm ticks must not allocate — the
// tracker is on the live simulation's per-tick hot path — serially and
// with the shards fanned out.
func TestTrackerSteadyStateAllocs(t *testing.T) {
	_, tr := fannedOutTracker(3, 0.02, 0.1)
	for i := 0; i < 50; i++ { // reach the buffer high-water mark
		tr.Tick()
	}
	for _, procs := range []int{1, 2} {
		testutil.PinAllocsAt(t, "steady-state tick", procs, 20, func() { tr.Tick() })
	}
}

// TestTrackerZeroNodes: an empty fleet must be a valid degenerate
// input — no panic, an empty graph, empty diffs, and still 0
// allocs/tick.
func TestTrackerZeroNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := NewWaypoint(0, 4, 0.05, 0.2, rng)
	tr := NewTracker(w, 1.0)
	if tr.N() != 0 || tr.Graph().N() != 0 || tr.Graph().M() != 0 {
		t.Fatalf("zero-node tracker not empty: n=%d", tr.N())
	}
	for i := 0; i < 3; i++ {
		added, removed := tr.Tick()
		if len(added) != 0 || len(removed) != 0 {
			t.Fatalf("tick %d: diff on an empty fleet (+%d −%d)", i, len(added), len(removed))
		}
	}
	testutil.PinAllocs(t, "zero-node tick", 10, func() { tr.Tick() })
}

// TestTrackerSingleCell: a square smaller than the connection radius
// collapses the grid to one cell — every pair is in the same 3×3
// neighborhood and the clique adjacency must still be exact, with
// intact diffs and 0 allocs/tick.
func TestTrackerSingleCell(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n = 40
	w := NewWaypoint(n, 0.5, 0.01, 0.05, rng) // side 0.5 < radius 1 → 1×1 grid
	tr := NewTracker(w, 1.0)
	g0 := tr.Graph()
	// Everything within a 0.5-side square is within distance √2·0.5 < 1.
	if g0.M() != n*(n-1)/2 {
		t.Fatalf("one-cell square should be a clique: m=%d want %d", g0.M(), n*(n-1)/2)
	}
	g := g0
	for tick := 0; tick < 10; tick++ {
		added, removed := tr.Tick()
		for _, p := range removed {
			if !g.RemoveEdge(int(p[0]), int(p[1])) {
				t.Fatalf("tick %d: corrupt diff — removed absent edge {%d,%d}", tick, p[0], p[1])
			}
		}
		for _, p := range added {
			if !g.AddEdge(int(p[0]), int(p[1])) {
				t.Fatalf("tick %d: corrupt diff — added present edge {%d,%d}", tick, p[0], p[1])
			}
		}
		if !reference.Equal(tr.Graph(), w.Graph(1.0)) {
			t.Fatalf("tick %d: one-cell adjacency diverged", tick)
		}
	}
	if !reference.Equal(g, tr.Graph()) {
		t.Fatal("one-cell replayed diffs diverged")
	}
	if allocs := testing.AllocsPerRun(10, func() { tr.Tick() }); allocs > 0 {
		t.Fatalf("one-cell tick allocates %.1f times", allocs)
	}
}

// TestTrackerCellBoundaryPositions: nodes placed exactly on cell
// boundaries (coordinates that are exact multiples of the radius,
// including the square's far edge) must bucket consistently and
// produce the exact unit-disk adjacency — the grid walk must not drop
// pairs that straddle a boundary, and diffs must stay coherent when
// nodes sit still.
func TestTrackerCellBoundaryPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const side = 4.0
	// 5×5 lattice at integer coordinates: every point is on a cell
	// corner; (4,4) sits on the square's far corner (clamped bucket).
	w := NewWaypoint(25, side, 0, 0, rng) // zero speed: positions frozen
	for i := 0; i < 25; i++ {
		w.pos[i] = [2]float64{float64(i % 5), float64(i / 5)}
	}
	tr := NewTracker(w, 1.0)
	want := w.Graph(1.0)
	if got := tr.Graph(); !reference.Equal(got, want) {
		t.Fatalf("boundary lattice adjacency wrong: m=%d want %d (axis neighbors at distance exactly 1)",
			got.M(), want.M())
	}
	// Lattice neighbors at distance exactly 1 must be present: 2·5·4 = 40.
	if got := tr.Graph(); got.M() != 40 {
		t.Fatalf("lattice edge count %d, want 40", got.M())
	}
	for tick := 0; tick < 3; tick++ {
		added, removed := tr.Tick()
		if len(added) != 0 || len(removed) != 0 {
			t.Fatalf("tick %d: static boundary nodes produced a diff (+%d −%d)",
				tick, len(added), len(removed))
		}
		if !reference.Equal(tr.Graph(), want) {
			t.Fatalf("tick %d: static boundary adjacency corrupted", tick)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { tr.Tick() }); allocs > 0 {
		t.Fatalf("boundary tick allocates %.1f times", allocs)
	}
}

// BenchmarkTrackerTick times one warm tick at the flood-50k workload's
// geometry: n = 50k, mean degree 8, speeds 0.01–0.05 per tick,
// connection radius 1. Run it with -cpu 1,2 to read the shard fan-out's
// scaling.
func BenchmarkTrackerTick(b *testing.B) {
	const n = 50000
	w := NewWaypoint(n, math.Sqrt(math.Pi*n/8), 0.01, 0.05, rand.New(rand.NewSource(1)))
	tr := NewTracker(w, 1.0)
	for i := 0; i < 5; i++ {
		tr.Tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	changes := 0
	for i := 0; i < b.N; i++ {
		added, removed := tr.Tick()
		changes += len(added) + len(removed)
	}
	b.ReportMetric(float64(changes)/float64(b.N), "changes/op")
}
