package mobility

import (
	"math/rand"
	"testing"

	"remspan/internal/geom"
	"remspan/internal/reference"
	"remspan/internal/testutil"
)

// TestTrackerMatchesUnitDiskGraph: after every tick the tracker's
// adjacency must equal the from-scratch unit-disk graph of the current
// positions.
func TestTrackerMatchesUnitDiskGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := NewWaypoint(200, 8, 0.05, 0.3, rng)
	tr := NewTracker(w, 1.0)
	for tick := 0; tick < 15; tick++ {
		tr.Tick()
		want := geom.UnitDiskGraph(w.Positions(), 1.0)
		if got := tr.Graph(); !reference.Equal(got, want) {
			t.Fatalf("tick %d: tracker adjacency diverged (m=%d want %d)",
				tick, got.M(), want.M())
		}
	}
}

// TestTrackerDiffsReplay: applying the emitted diffs to the initial
// graph must reproduce the current graph exactly.
func TestTrackerDiffsReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := NewWaypoint(150, 7, 0.05, 0.25, rng)
	tr := NewTracker(w, 1.0)
	g := tr.Graph()
	for tick := 0; tick < 20; tick++ {
		added, removed := tr.Tick()
		for _, p := range removed {
			if !g.RemoveEdge(int(p[0]), int(p[1])) {
				t.Fatalf("tick %d: removed edge {%d,%d} was absent", tick, p[0], p[1])
			}
		}
		for _, p := range added {
			if !g.AddEdge(int(p[0]), int(p[1])) {
				t.Fatalf("tick %d: added edge {%d,%d} already present", tick, p[0], p[1])
			}
		}
	}
	if !reference.Equal(g, tr.Graph()) {
		t.Fatal("replayed diffs diverged from tracker graph")
	}
}

// TestTrackerSteadyStateAllocs: warm ticks must not allocate — the
// tracker is on the live simulation's per-tick hot path.
func TestTrackerSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := NewWaypoint(300, 10, 0.02, 0.1, rng)
	tr := NewTracker(w, 1.0)
	for i := 0; i < 50; i++ { // reach the buffer high-water mark
		tr.Tick()
	}
	testutil.PinAllocs(t, "steady-state tick", 30, func() { tr.Tick() })
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
		want := geom.UnitDiskGraph(w.Positions(), 1.0)
		if !reference.Equal(tr.Graph(), want) {
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
	pts := w.Positions()
	for i := 0; i < 25; i++ {
		pts[i][0] = float64(i % 5)
		pts[i][1] = float64(i / 5)
	}
	tr := NewTracker(w, 1.0)
	want := geom.UnitDiskGraph(pts, 1.0)
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
