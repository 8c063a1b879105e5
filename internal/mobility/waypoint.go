// Package mobility generates time-evolving ad-hoc network topologies:
// a random-waypoint point process whose unit-disk graph changes as
// nodes move. It feeds the time-domain protocol simulations (package
// olsr) that exercise the paper's remark on running RemSpan
// periodically in a live link-state protocol (§2.3).
package mobility

import (
	"math"
	"math/rand"

	"remspan/internal/geom"
	"remspan/internal/graph"
)

// Waypoint is the classic random-waypoint mobility model on a square:
// every node picks a uniform destination and speed, walks there in
// straight ticks, then picks a new one. Positions and destinations are
// flat arrays, one [2]float64 per node, so a sweep over the fleet reads
// contiguous memory.
type Waypoint struct {
	side     float64
	minSpeed float64 // distance per tick
	maxSpeed float64
	rng      *rand.Rand
	pos      [][2]float64
	dst      [][2]float64
	speed    []float64
}

// NewWaypoint places n nodes uniformly on a side×side square with
// speeds drawn uniformly from [minSpeed, maxSpeed] per tick.
func NewWaypoint(n int, side, minSpeed, maxSpeed float64, rng *rand.Rand) *Waypoint {
	if minSpeed < 0 || maxSpeed < minSpeed {
		panic("mobility: bad speed range")
	}
	w := &Waypoint{
		side:     side,
		minSpeed: minSpeed,
		maxSpeed: maxSpeed,
		rng:      rng,
		pos:      make([][2]float64, n),
		dst:      make([][2]float64, n),
		speed:    make([]float64, n),
	}
	for i := range w.pos { // the draws of geom.UniformBox(n, 2, side, rng)
		w.pos[i][0] = rng.Float64() * side
		w.pos[i][1] = rng.Float64() * side
	}
	for i := range w.dst {
		w.retarget(i)
	}
	return w
}

// retarget draws node i's next destination and speed.
//
//remspan:hotpath
func (w *Waypoint) retarget(i int) {
	w.dst[i][0] = w.rng.Float64() * w.side
	w.dst[i][1] = w.rng.Float64() * w.side
	w.speed[i] = w.minSpeed + w.rng.Float64()*(w.maxSpeed-w.minSpeed)
}

// N returns the node count.
func (w *Waypoint) N() int { return len(w.pos) }

// Step advances every node one tick toward its waypoint, retargeting
// on arrival. Positions are updated in place — zero allocations per
// tick (pinned by TestTrackerSteadyStateAllocs).
//
//remspan:hotpath
func (w *Waypoint) Step() {
	for i := range w.pos {
		p, d := &w.pos[i], w.dst[i]
		dx, dy := d[0]-p[0], d[1]-p[1]
		dist := math.Hypot(dx, dy)
		if dist <= w.speed[i] {
			*p = d
			w.retarget(i)
			continue
		}
		scale := w.speed[i] / dist
		p[0] += dx * scale
		p[1] += dy * scale
	}
}

// Graph returns the unit-disk graph of the current positions with the
// given connection radius.
func (w *Waypoint) Graph(radius float64) *graph.Graph {
	pts := make([]geom.Point, len(w.pos))
	for i := range w.pos {
		pts[i] = w.pos[i][:]
	}
	return geom.UnitDiskGraph(pts, radius)
}
