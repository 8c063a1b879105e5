package routing

import (
	"slices"

	"remspan/internal/graph"
)

// Table is one router's forwarding table: the next hop toward every
// destination, derived from shortest paths in its own augmented view
// H_u (what a link-state daemon actually installs in the FIB).
//
// Next hops follow one canonical rule, which the 64-owner word-parallel
// sweep of batch.go implements and the tests' scalar per-owner BFS
// pins bit for bit:
//
//   - Next[t] = t for t ∈ N_G(u) (d_{H_u}(u,t) = 1);
//   - otherwise Next[t] = Next[p(t)], where p(t) is the smallest-id
//     H-neighbor of t at depth d_{H_u}(u,t) − 1.
//
// Resolving the chain bottom-up in BFS level order makes the rule
// iterative: p(t) is always finalized before t is visited, so no
// recursion — and no O(diameter) call stack on path-like graphs — is
// ever needed (regression-pinned by TestBuildTableDeepPath).
type Table struct {
	Owner int
	Next  []int32 // Next[t] = neighbor to forward to, -1 unreachable, Owner for t==Owner
	Dist  []int32 // believed distance in H_u
}

// NewTables allocates an n-owner table set with backing rows, ready
// for BatchBuilder.BuildInto.
func NewTables(n int) []Table {
	out := make([]Table, n)
	next := make([]int32, n*n)
	dist := make([]int32, n*n)
	for u := range out {
		out[u] = Table{Owner: u, Next: next[u*n : (u+1)*n : (u+1)*n], Dist: dist[u*n : (u+1)*n : (u+1)*n]}
	}
	return out
}

// RouteReason classifies the outcome of a table-driven forwarding walk,
// distinguishing "the network genuinely has no route" from "the table
// is stale relative to the physical graph" — the distinction the
// epoch-swapped Store needs to trigger re-resolution instead of
// reporting a bogus delivery failure.
type RouteReason uint8

// Route outcomes.
const (
	// RouteDelivered: the packet reached t.
	RouteDelivered RouteReason = iota
	// RouteUnreachable: a hop's table has no next hop for t (t is
	// outside that hop's view component).
	RouteUnreachable
	// RouteStaleLink: a hop's table names a next hop that is not a
	// current physical link — stale state, not missing connectivity.
	RouteStaleLink
	// RouteTrapped: the hop budget was exhausted without delivery
	// (mutually inconsistent tables can loop; impossible within one
	// coherently built table set over a remote-spanner).
	RouteTrapped
	// RouteDegraded: the answer was computed by greedy fallback on a
	// replica's local spanner view because no sufficiently fresh
	// forwarding tables were available (replica degraded mode). The
	// path is real but carries no table-tier freshness guarantee.
	RouteDegraded
)

// String returns the reason mnemonic.
func (r RouteReason) String() string {
	switch r {
	case RouteDelivered:
		return "delivered"
	case RouteUnreachable:
		return "unreachable"
	case RouteStaleLink:
		return "stale-link"
	case RouteTrapped:
		return "trapped"
	case RouteDegraded:
		return "degraded"
	default:
		return "unknown"
	}
}

// hasEdgeView reports whether {u, v} is an edge of the view (binary
// search on the sorted adjacency row).
func hasEdgeView(v graph.View, a, b int) bool {
	if a == b {
		return false
	}
	_, ok := slices.BinarySearch(v.Neighbors(a), int32(b))
	return ok
}

// TableRoute forwards a packet hop by hop, each hop consulting its own
// table — the production data path of link-state routing. The
// remote-spanner property guarantees loop-free delivery with route
// length at most d_{H_s}(s, t): each hop's believed distance strictly
// decreases (d_{H_{u'}}(u', t) ≤ d_{H_u}(u, t) − 1, §1). Every next
// hop is validated against the physical view g; failures carry a typed
// Reason and the node At which forwarding stopped, so callers can tell
// delivery failure (RouteUnreachable) from stale table state
// (RouteStaleLink).
func TableRoute(tables []Table, g graph.View, s, t int) Route {
	return tableRouteInto(tables, g, s, t, make([]int32, 0, 8))
}

// TableRouteInto is TableRoute appending into a caller-owned path
// buffer — the allocation-free form concurrent table consumers (the
// replica tier's lock-free query path) use. On delivery the returned
// Route.Path is the (possibly grown) buffer; keep it for the next
// call. A nil g skips physical link validation.
func TableRouteInto(tables []Table, g graph.View, s, t int, path []int32) Route {
	return tableRouteInto(tables, g, s, t, path)
}

// tableRouteInto is the one forwarding walk every table-driven data
// path shares (TableRoute, Reader.Route, Reader.RouteOn), appending
// into a caller-owned path buffer — the Store's reader hot path, zero
// allocations once the buffer is warm. A nil g skips the physical
// link validation (the Store's epoch-internal walk); failures return
// no path.
//
//remspan:hotpath
func tableRouteInto(tables []Table, g graph.View, s, t int, path []int32) Route {
	path = append(path[:0], int32(s))
	if s == t {
		return Route{Path: path, OK: true, At: int32(s)}
	}
	cur := s
	for hops := 0; hops <= len(tables); hops++ {
		if cur == t {
			return Route{Path: path, Hops: len(path) - 1, OK: true, At: int32(t)}
		}
		nh := tables[cur].Next[t]
		if nh < 0 {
			return Route{Reason: RouteUnreachable, At: int32(cur)}
		}
		if g != nil && !hasEdgeView(g, cur, int(nh)) {
			return Route{Reason: RouteStaleLink, At: int32(cur)}
		}
		path = append(path, nh)
		cur = int(nh)
	}
	return Route{Reason: RouteTrapped, At: int32(cur)}
}
