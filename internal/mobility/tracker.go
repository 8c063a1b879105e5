package mobility

import (
	"slices"

	"remspan/internal/graph"
)

// Tracker maintains the unit-disk graph of a Waypoint process and emits
// per-tick edge diffs with reusable buffers: a fixed cell grid of side
// equal to the connection radius is refilled by counting sort each
// tick, every node's adjacency is regenerated from its 3×3 cell
// neighborhood into a double-buffered flat CSR, and the sorted rows are
// merge-diffed against the previous tick's. Steady-state ticks allocate
// nothing once the buffers reach their high-water mark, which is what
// lets the live protocol simulation run mobility at 50k nodes without
// rebuilding a graph per tick.
type Tracker struct {
	w      *Waypoint
	radius float64
	nx, ny int

	cellOf    []int32 // node → cell index
	cellStart []int32 // cell → first slot in cellNodes (prefix sums)
	cellNodes []int32 // nodes grouped by cell

	curOff, prevOff []int32 // per-node row offsets (len n+1)
	curTgt, prevTgt []int32 // sorted neighbor ids

	added, removed [][2]int32
}

// NewTracker builds the initial unit-disk adjacency of w's current
// positions with the given connection radius.
func NewTracker(w *Waypoint, radius float64) *Tracker {
	if radius <= 0 {
		panic("mobility: connection radius must be positive")
	}
	nx := int(w.side/radius) + 1
	t := &Tracker{
		w:         w,
		radius:    radius,
		nx:        nx,
		ny:        nx,
		cellOf:    make([]int32, w.N()),
		cellStart: make([]int32, nx*nx+1),
		cellNodes: make([]int32, w.N()),
		curOff:    make([]int32, w.N()+1),
		prevOff:   make([]int32, w.N()+1),
	}
	t.rebuild()
	return t
}

// N returns the node count.
func (t *Tracker) N() int { return t.w.N() }

// Graph materializes the current unit-disk graph.
func (t *Tracker) Graph() *graph.Graph {
	g := graph.New(t.N())
	for u := 0; u < t.N(); u++ {
		for _, v := range t.curTgt[t.curOff[u]:t.curOff[u+1]] {
			if int32(u) < v {
				g.AddEdge(u, int(v))
			}
		}
	}
	return g
}

// Tick advances the waypoint model one step and returns the unit-disk
// edge diff as (u, v) pairs with u < v, sorted lexicographically. The
// slices are tracker-owned and valid until the next Tick.
func (t *Tracker) Tick() (added, removed [][2]int32) {
	t.prevOff, t.curOff = t.curOff, t.prevOff
	t.prevTgt, t.curTgt = t.curTgt, t.prevTgt
	t.w.Step()
	t.rebuild()

	t.added = t.added[:0]
	t.removed = t.removed[:0]
	for u := 0; u < t.N(); u++ {
		prev := t.prevTgt[t.prevOff[u]:t.prevOff[u+1]]
		cur := t.curTgt[t.curOff[u]:t.curOff[u+1]]
		i, j := 0, 0
		for i < len(prev) || j < len(cur) {
			switch {
			case j >= len(cur) || (i < len(prev) && prev[i] < cur[j]):
				if int32(u) < prev[i] {
					t.removed = append(t.removed, [2]int32{int32(u), prev[i]})
				}
				i++
			case i >= len(prev) || cur[j] < prev[i]:
				if int32(u) < cur[j] {
					t.added = append(t.added, [2]int32{int32(u), cur[j]})
				}
				j++
			default:
				i++
				j++
			}
		}
	}
	return t.added, t.removed
}

// rebuild regenerates the current adjacency from scratch positions:
// counting sort into the cell grid, then a 3×3 cell scan per node.
func (t *Tracker) rebuild() {
	n := t.N()
	pts := t.w.Positions()
	r, r2 := t.radius, t.radius*t.radius

	cell := func(i int) int32 {
		cx, cy := int(pts[i][0]/r), int(pts[i][1]/r)
		if cx < 0 {
			cx = 0
		} else if cx >= t.nx {
			cx = t.nx - 1
		}
		if cy < 0 {
			cy = 0
		} else if cy >= t.ny {
			cy = t.ny - 1
		}
		return int32(cy*t.nx + cx)
	}
	for i := range t.cellStart {
		t.cellStart[i] = 0
	}
	for i := 0; i < n; i++ {
		c := cell(i)
		t.cellOf[i] = c
		t.cellStart[c+1]++
	}
	for c := 1; c < len(t.cellStart); c++ {
		t.cellStart[c] += t.cellStart[c-1]
	}
	// cellStart[c] now points at the start of cell c's segment; fill and
	// restore by walking nodes in id order (segments end sorted by id).
	fill := t.cellNodes
	cursor := t.cellStart
	for i := 0; i < n; i++ {
		c := t.cellOf[i]
		fill[cursor[c]] = int32(i)
		cursor[c]++
	}
	// cursor[c] has advanced to the start of c+1; shift back.
	for c := len(cursor) - 1; c > 0; c-- {
		cursor[c] = cursor[c-1]
	}
	cursor[0] = 0

	t.curTgt = t.curTgt[:0]
	for i := 0; i < n; i++ {
		t.curOff[i] = int32(len(t.curTgt))
		ci := int(t.cellOf[i])
		cx, cy := ci%t.nx, ci/t.nx
		row := len(t.curTgt)
		for dy := -1; dy <= 1; dy++ {
			yy := cy + dy
			if yy < 0 || yy >= t.ny {
				continue
			}
			for dx := -1; dx <= 1; dx++ {
				xx := cx + dx
				if xx < 0 || xx >= t.nx {
					continue
				}
				c := yy*t.nx + xx
				for _, j := range t.cellNodes[t.cellStart[c]:t.cellStart[c+1]] {
					if int(j) == i {
						continue
					}
					ddx := pts[i][0] - pts[j][0]
					ddy := pts[i][1] - pts[j][1]
					if ddx*ddx+ddy*ddy <= r2 {
						t.curTgt = append(t.curTgt, j)
					}
				}
			}
		}
		slices.Sort(t.curTgt[row:])
	}
	t.curOff[n] = int32(len(t.curTgt))
}
