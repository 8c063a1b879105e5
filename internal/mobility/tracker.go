package mobility

import (
	"slices"

	"remspan/internal/graph"
	"remspan/internal/sched"
)

// shardNodes is the node-id span of one shard: fixed, so a node's row
// lives in the same shard's slabs tick after tick and the diff finds
// the previous row where the build left it. A fleet of at most
// shardNodes nodes is one shard, which runs at width 1 on the caller.
const shardNodes = 1024

// Tracker maintains the unit-disk graph of a Waypoint process and emits
// per-tick edge diffs with reusable buffers. Each tick a fixed cell
// grid of side equal to the connection radius is refilled by counting
// sort, which also gathers the positions into cell order, so the cells
// a node scans are three contiguous runs of coordinates. The nodes'
// sorted rows are then rebuilt, and merge-diffed against the previous
// tick's, in contiguous node-id shards on a sched.Env. Each shard keeps
// its rows in a double-buffered slab of its own, so rows are stored
// once, and its diff in buffers of its own, concatenated in shard order.
// Steady-state ticks allocate nothing once the buffers reach their
// high-water mark, which is what lets the live protocol simulation run
// mobility at 50k nodes without rebuilding a graph per tick.
type Tracker struct {
	w      *Waypoint
	radius float64
	nx, ny int

	cellOf    []int32      // node → cell index
	cellStart []int32      // cell → first slot in cellNodes (prefix sums)
	cellNodes []int32      // nodes grouped by cell, ascending within a cell
	cellPos   [][2]float64 // cellPos[s] is the position of cellNodes[s]

	shards []trackShard
	diff   bool // shard bodies diff against the previous rows (false for the first build)

	// env is the shard fan-out. Shards keep their own state, so its
	// worker slots stay empty; a pool field outside internal/sched is
	// held as a sched.Env (TestNoTestOnlyProductionCode).
	env       sched.Env[struct{}]
	shardBody func(w, lo, hi int) // prebound shard body

	added, removed [][2]int32
}

// trackShard is one node-id shard's state: its nodes' sorted rows of
// this tick and the last, and this tick's diff of its rows.
type trackShard struct {
	off, prevOff   []int32 // row offsets into tgt/prevTgt, one per node plus one
	tgt, prevTgt   []int32 // sorted rows, concatenated in node order
	added, removed [][2]int32
}

// NewTracker builds the initial unit-disk adjacency of w's current
// positions with the given connection radius.
func NewTracker(w *Waypoint, radius float64) *Tracker {
	if radius <= 0 {
		panic("mobility: connection radius must be positive")
	}
	n := w.N()
	nx := int(w.side/radius) + 1
	t := &Tracker{
		w:         w,
		radius:    radius,
		nx:        nx,
		ny:        nx,
		cellOf:    make([]int32, n),
		cellStart: make([]int32, nx*nx+1),
		cellNodes: make([]int32, n),
		cellPos:   make([][2]float64, n),
		shards:    make([]trackShard, (n+shardNodes-1)/shardNodes),
	}
	for k := range t.shards {
		span := min(shardNodes, n-k*shardNodes)
		t.shards[k].off = make([]int32, span+1)
		t.shards[k].prevOff = make([]int32, span+1)
	}
	t.shardBody = t.buildShards
	t.rebuild()
	t.diff = true
	return t
}

// N returns the node count.
func (t *Tracker) N() int { return t.w.N() }

// Graph materializes the current unit-disk graph.
func (t *Tracker) Graph() *graph.Graph {
	g := graph.New(t.N())
	for k := range t.shards {
		sh := &t.shards[k]
		for i := 0; i+1 < len(sh.off); i++ {
			u := k*shardNodes + i
			for _, v := range sh.tgt[sh.off[i]:sh.off[i+1]] {
				if int32(u) < v {
					g.AddEdge(u, int(v))
				}
			}
		}
	}
	return g
}

// Tick advances the waypoint model one step and returns the unit-disk
// edge diff as (u, v) pairs with u < v, sorted lexicographically. The
// slices are tracker-owned and valid until the next Tick.
//
//remspan:hotpath
func (t *Tracker) Tick() (added, removed [][2]int32) {
	t.w.Step()
	t.rebuild()
	t.added, t.removed = t.added[:0], t.removed[:0]
	for k := range t.shards {
		t.added = append(t.added, t.shards[k].added...)
		t.removed = append(t.removed, t.shards[k].removed...)
	}
	return t.added, t.removed
}

// rebuild buckets the current positions into the cell grid and rebuilds
// every shard's rows (and diff, once there are previous rows), one
// shard per span.
//
//remspan:hotpath
func (t *Tracker) rebuild() {
	t.bucket()
	t.env.RunSpan(len(t.shards), sched.Workers(len(t.shards)), 1, t.shardBody)
}

// bucket counting-sorts the nodes into the cell grid: cellNodes lists
// each cell's nodes in ascending id order and cellPos their positions
// beside them.
//
//remspan:hotpath
func (t *Tracker) bucket() {
	pos := t.w.pos
	r := t.radius
	clear(t.cellStart)
	for i, p := range pos {
		cx, cy := int(p[0]/r), int(p[1]/r)
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
		c := int32(cy*t.nx + cx)
		t.cellOf[i] = c
		t.cellStart[c+1]++
	}
	for c := 1; c < len(t.cellStart); c++ {
		t.cellStart[c] += t.cellStart[c-1]
	}
	// cellStart[c] now points at the start of cell c's segment; fill and
	// restore by walking nodes in id order (segments end sorted by id).
	cursor := t.cellStart
	for i, c := range t.cellOf {
		s := cursor[c]
		t.cellNodes[s] = int32(i)
		t.cellPos[s] = pos[i]
		cursor[c]++
	}
	// cursor[c] has advanced to the start of c+1; shift back.
	for c := len(cursor) - 1; c > 0; c-- {
		cursor[c] = cursor[c-1]
	}
	cursor[0] = 0
}

// buildShards is the shard body: it rebuilds shards [lo, hi).
//
//remspan:hotpath
func (t *Tracker) buildShards(_, lo, hi int) {
	for k := lo; k < hi; k++ {
		t.buildShard(k)
	}
}

// buildShard rebuilds shard k's rows from the bucketed positions and
// merge-diffs each against the previous tick's. A row collects the
// node's 3×3 cell neighborhood within the radius without a
// data-dependent branch, then is insertion-sorted. It writes only shard
// k's state, so the schedule cannot affect the result.
//
//remspan:hotpath
func (t *Tracker) buildShard(k int) {
	sh := &t.shards[k]
	sh.off, sh.prevOff = sh.prevOff, sh.off
	sh.tgt, sh.prevTgt = sh.prevTgt, sh.tgt
	sh.added, sh.removed = sh.added[:0], sh.removed[:0]
	pos, r2 := t.w.pos, t.radius*t.radius
	base := k * shardNodes
	tgt := sh.tgt[:0]
	for i := range len(sh.off) - 1 {
		u := base + i
		row := len(tgt)
		sh.off[i] = int32(row)
		p := pos[u]
		ci := int(t.cellOf[u])
		cx, cy := ci%t.nx, ci/t.nx
		// The up-to-three cells of one grid row have adjacent indices,
		// so their slots form one contiguous run.
		left, right := min(cx, 1), min(t.nx-1-cx, 1)+1
		y0, y1 := max(cy-1, 0), min(cy+1, t.ny-1)
		total := int(t.cellStart[ci+(y1-cy)*t.nx+right] - t.cellStart[ci+(y0-cy)*t.nx-left])
		if cap(tgt)-row < total {
			tgt = slices.Grow(tgt, total) //remspan:coldpath the row slab grows to its high-water mark
		}
		win, hits := tgt[row:row+total], 0
		for yy := y0; yy <= y1; yy++ {
			c := ci + (yy-cy)*t.nx
			for s, end := t.cellStart[c-left], t.cellStart[c+right]; s < end; s++ {
				q := t.cellPos[s]
				ddx := p[0] - q[0]
				ddy := p[1] - q[1]
				j := t.cellNodes[s]
				win[hits] = j
				hit := 0
				if ddx*ddx+ddy*ddy <= r2 {
					hit = 1
				}
				if int(j) == u {
					hit = 0
				}
				hits += hit
			}
		}
		tgt = tgt[:row+hits]
		for a := row + 1; a < len(tgt); a++ {
			for x, j := a, tgt[a]; x > row && tgt[x-1] > j; x-- {
				tgt[x-1], tgt[x] = j, tgt[x-1]
			}
		}
		if t.diff {
			sh.diffRow(int32(u), sh.prevTgt[sh.prevOff[i]:sh.prevOff[i+1]], tgt[row:])
		}
	}
	sh.off[len(sh.off)-1] = int32(len(tgt))
	sh.tgt = tgt
}

// diffRow appends the pairs (u, v), u < v, of v in cur but not prev to
// the shard's added list and of v in prev but not cur to its removed
// list, in ascending v.
//
//remspan:hotpath
func (sh *trackShard) diffRow(u int32, prev, cur []int32) {
	i, j := 0, 0
	for i < len(prev) || j < len(cur) {
		switch {
		case j >= len(cur) || (i < len(prev) && prev[i] < cur[j]):
			if u < prev[i] {
				sh.removed = append(sh.removed, [2]int32{u, prev[i]})
			}
			i++
		case i >= len(prev) || cur[j] < prev[i]:
			if u < cur[j] {
				sh.added = append(sh.added, [2]int32{u, cur[j]})
			}
			j++
		default:
			i++
			j++
		}
	}
}
