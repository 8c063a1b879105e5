// Package routing implements the paper's motivating application layer:
// link-state routing over an advertised remote-spanner. Each node knows
// its own neighbors (hello protocol) plus the flooded sub-graph H, so
// it routes greedily on its augmented view H_u; the remote-spanner
// property bounds the resulting route length by α·d_G + β (§1).
//
// The forwarding plane has two data paths, both with reusable scratch
// so hot paths allocate nothing:
//
//   - GreedyRoute / RouteScratch: per-hop greedy forwarding, each hop
//     re-evaluating distances in its own view (the simulation path),
//     over any graph.View (mutable Graph, CSR snapshot, or patched
//     CSRDelta);
//   - Table / BatchBuilder / BuildTablesBatched (tables.go, batch.go):
//     precomputed next-hop tables — the FIB a link-state daemon
//     installs — built 64 owners per word-parallel sweep over G as any
//     graph.View and H as a CSR, and kept fresh under churn by the
//     Store (store.go), which derives H from the maintainer's trees
//     and rebuilds the dirty owners' rows in place.
//
// The package also provides OLSR-style multipoint-relay flooding and
// disjoint-path multipath routing with failure injection.
package routing

import (
	"remspan/internal/flow"
	"remspan/internal/graph"
	"remspan/internal/spanner"
)

// Route is the outcome of a link-state forwarding walk (greedy or
// table-driven).
type Route struct {
	Path   []int32 // s ... t (empty when !OK; scratch-owned on scratch paths)
	Hops   int
	OK     bool
	Reason RouteReason // why forwarding stopped (RouteDelivered when OK)
	At     int32       // node where the walk ended (t on delivery)
}

// RouteScratch holds the reusable traversal state of greedy routing:
// one warm scratch routes any number of packets with zero allocations
// (pinned by TestGreedyRouteZeroAlloc). Not safe for concurrent use;
// the returned Route's Path is scratch-owned and valid until the next
// call.
type RouteScratch struct {
	dist    []int32
	queue   []int32
	path    []int32
	nbMark  []uint32 // epoch-stamped "is a G-neighbor of the hop owner"
	nbEpoch uint32
}

// NewRouteScratch returns routing scratch for graphs with up to n
// vertices.
func NewRouteScratch(n int) *RouteScratch {
	d := make([]int32, n)
	for i := range d {
		d[i] = graph.Unreached
	}
	return &RouteScratch{
		dist:   d,
		queue:  make([]int32, 0, n),
		path:   make([]int32, 0, 16),
		nbMark: make([]uint32, n),
	}
}

// GreedyRoute simulates hop-by-hop greedy forwarding from s to t: the
// packet at node u is forwarded to the G-neighbor of u closest to t in
// u's own view H_u (ties to the smallest id). This is exactly the
// forwarding rule of §1; the paper shows the route length is at most
// d_{H_s}(s, t).
func (rs *RouteScratch) GreedyRoute(g, h graph.View, s, t int) Route {
	rs.path = append(rs.path[:0], int32(s))
	if s == t {
		return Route{Path: rs.path, OK: true, At: int32(s)}
	}
	maxHops := g.N() + 1
	cur := s
	for hops := 0; hops < maxHops; hops++ {
		if cur == t {
			return Route{Path: rs.path, Hops: len(rs.path) - 1, OK: true, At: int32(t)}
		}
		if hasEdgeView(g, cur, t) {
			rs.path = append(rs.path, int32(t))
			cur = t
			continue
		}
		// Distances from t in cur's own view H_cur (undirected, so a
		// single BFS from t serves all of cur's neighbors).
		d := rs.viewBFSFrom(g, h, cur, t)
		best, bestD := int32(-1), int32(-1)
		for _, nb := range g.Neighbors(cur) {
			dv := d[nb]
			if dv == graph.Unreached {
				continue
			}
			if best == -1 || dv < bestD || (dv == bestD && nb < best) {
				best, bestD = nb, dv
			}
		}
		if best == -1 {
			return Route{Reason: RouteUnreachable, At: int32(cur)}
		}
		rs.path = append(rs.path, best)
		cur = int(best)
	}
	return Route{Reason: RouteTrapped, At: int32(cur)}
}

// GreedyRoute is the convenience form with fresh scratch (per-call
// allocations; batch callers thread a RouteScratch instead).
func GreedyRoute(g, h graph.View, s, t int) Route {
	return NewRouteScratch(g.N()).GreedyRoute(g, h, s, t)
}

// viewBFSFrom returns distances from src in the view H_owner (H plus
// owner's G-incident edges); the slice is valid until the next call.
func (rs *RouteScratch) viewBFSFrom(g, h graph.View, owner, src int) []int32 {
	for _, v := range rs.queue {
		rs.dist[v] = graph.Unreached
	}
	rs.queue = rs.queue[:0]

	// Epoch-stamp owner's G-neighbors so the star test inside the sweep
	// is O(1) instead of a binary search per visited vertex.
	rs.nbEpoch++
	if rs.nbEpoch == 0 { // wrap: re-zero at a boundary with no live epochs
		for i := range rs.nbMark {
			rs.nbMark[i] = 0
		}
		rs.nbEpoch = 1
	}
	ownerNb := g.Neighbors(owner)
	for _, v := range ownerNb {
		rs.nbMark[v] = rs.nbEpoch
	}

	dist := rs.dist
	dist[src] = 0
	rs.queue = append(rs.queue, int32(src))
	for head := 0; head < len(rs.queue); head++ {
		x := rs.queue[head]
		dx := dist[x] + 1
		for _, v := range h.Neighbors(int(x)) {
			if dist[v] == graph.Unreached {
				dist[v] = dx
				rs.queue = append(rs.queue, v)
			}
		}
		// Augmented edges: owner ↔ its G-neighbors.
		if int(x) == owner {
			for _, v := range ownerNb {
				if dist[v] == graph.Unreached {
					dist[v] = dx
					rs.queue = append(rs.queue, v)
				}
			}
		} else if rs.nbMark[x] == rs.nbEpoch && dist[owner] == graph.Unreached {
			dist[owner] = dx
			rs.queue = append(rs.queue, int32(owner))
		}
	}
	return dist
}

// StretchStats summarizes greedy-routing quality over a set of pairs.
type StretchStats struct {
	Pairs      int
	Delivered  int
	MaxStretch float64
	AvgStretch float64
	MaxHops    int
}

// MeasureRouting runs GreedyRoute over the given pairs and compares the
// hop counts with shortest-path distances in g.
func MeasureRouting(g, h graph.View, pairs [][2]int) StretchStats {
	var st StretchStats
	sum := 0.0
	scratch := graph.NewBFSScratch(g.N())
	rs := NewRouteScratch(g.N())
	for _, p := range pairs {
		s, t := p[0], p[1]
		if s == t {
			continue
		}
		dg, _, _ := scratch.BoundedView(g, s, g.N())
		if dg[t] == graph.Unreached {
			continue
		}
		st.Pairs++
		r := rs.GreedyRoute(g, h, s, t)
		if !r.OK {
			continue
		}
		st.Delivered++
		stretch := float64(r.Hops) / float64(dg[t])
		sum += stretch
		if stretch > st.MaxStretch {
			st.MaxStretch = stretch
		}
		if r.Hops > st.MaxHops {
			st.MaxHops = r.Hops
		}
	}
	if st.Delivered > 0 {
		st.AvgStretch = sum / float64(st.Delivered)
	}
	return st
}

// DisjointRoutes returns k minimum-total-length internally disjoint
// routes from s to t in s's view H_s — the multipath routing enabled by
// k-connecting remote-spanners (§3). A non-nil error reports a failed
// path decomposition (malformed flow state), not missing connectivity.
func DisjointRoutes(g, h *graph.Graph, s, t, k int) (flow.Result, bool, error) {
	hs := spanner.View(g, h, s)
	return flow.VertexDisjointPaths(hs, s, t, k)
}
