package mobility

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"remspan/internal/reference"
)

func TestWaypointStaysInBox(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := NewWaypoint(50, 3, 0.05, 0.2, rng)
	for step := 0; step < 200; step++ {
		w.Step()
		for _, p := range w.pos {
			if p[0] < 0 || p[0] > 3 || p[1] < 0 || p[1] > 3 {
				t.Fatalf("step %d: point %v left the box", step, p)
			}
		}
	}
}

func TestWaypointSpeedBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := NewWaypoint(30, 4, 0.01, 0.1, rng)
	prev := clonePoints(w)
	for step := 0; step < 50; step++ {
		w.Step()
		for i, p := range w.pos {
			d := math.Hypot(p[0]-prev[i][0], p[1]-prev[i][1])
			if d > 0.1+1e-9 {
				t.Fatalf("node %d moved %v > max speed", i, d)
			}
		}
		prev = clonePoints(w)
	}
}

func TestWaypointActuallyMoves(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := NewWaypoint(20, 4, 0.05, 0.05, rng)
	start := clonePoints(w)
	for i := 0; i < 30; i++ {
		w.Step()
	}
	moved := 0
	for i, p := range w.pos {
		if math.Hypot(p[0]-start[i][0], p[1]-start[i][1]) > 0.01 {
			moved++
		}
	}
	if moved < 15 {
		t.Fatalf("only %d/20 nodes moved", moved)
	}
}

func TestWaypointGraphEvolves(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := NewWaypoint(80, 3, 0.1, 0.3, rng)
	g1 := w.Graph(1.0)
	for i := 0; i < 20; i++ {
		w.Step()
	}
	g2 := w.Graph(1.0)
	if reference.Equal(g1, g2) {
		t.Fatal("topology did not change under fast mobility")
	}
	if g1.N() != g2.N() {
		t.Fatal("node count changed")
	}
}

func TestWaypointZeroSpeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := NewWaypoint(10, 2, 0, 0, rng)
	start := clonePoints(w)
	w.Step()
	for i, p := range w.pos {
		if p[0] != start[i][0] || p[1] != start[i][1] {
			t.Fatal("zero-speed node moved")
		}
	}
}

func TestWaypointBadSpeedsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWaypoint(5, 1, 0.5, 0.1, rand.New(rand.NewSource(6)))
}

func clonePoints(w *Waypoint) [][2]float64 { return slices.Clone(w.pos) }
