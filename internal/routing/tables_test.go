package routing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"remspan/internal/gen"
	"remspan/internal/graph"
	"remspan/internal/spanner"
)

// The scalar table builder: one BFS of H_u per owner, the reference
// the word-parallel BatchBuilder (batch.go), BuildTablesBatched and
// the Store are pinned against (FuzzTableEquivalence and the batch
// tests).

// TableScratch holds the reusable traversal state of the scalar table
// builder — one BFS of H_u per owner, the reference the word-parallel
// BatchBuilder is pinned against. Not safe for concurrent use.
type TableScratch struct {
	dist  []int32
	queue []int32
}

// NewTableScratch returns scratch space for graphs with up to n
// vertices.
func NewTableScratch(n int) *TableScratch {
	d := make([]int32, n)
	for i := range d {
		d[i] = graph.Unreached
	}
	return &TableScratch{dist: d, queue: make([]int32, 0, n)}
}

// BuildTableInto computes u's forwarding table over its view H_u into
// the caller-provided rows next and dist (each of length ≥ n). u's
// incident edges come from g, all other adjacency from h (h ⊆ g, the
// advertised spanner).
func (s *TableScratch) BuildTableInto(g, h graph.View, u int, next, dist []int32) {
	n := g.N()
	// Reset only what the previous build touched.
	for _, v := range s.queue {
		s.dist[v] = graph.Unreached
	}
	s.queue = s.queue[:0]

	sd := s.dist
	sd[u] = 0
	s.queue = append(s.queue, int32(u))
	// BFS in H_u: u's edges from g, the rest from h. Seeds enqueue in
	// ascending id order (Neighbors slices are sorted), and the queue is
	// level-ordered, so every depth d−1 vertex is visited before any
	// depth d vertex.
	for _, v := range g.Neighbors(u) {
		if sd[v] == graph.Unreached {
			sd[v] = 1
			s.queue = append(s.queue, v)
		}
	}
	for head := 1; head < len(s.queue); head++ {
		x := s.queue[head]
		for _, v := range h.Neighbors(int(x)) {
			if sd[v] == graph.Unreached {
				sd[v] = sd[x] + 1
				s.queue = append(s.queue, v)
			}
		}
	}

	next = next[:n]
	dist = dist[:n]
	for i := range next {
		next[i] = -1
		dist[i] = graph.Unreached
	}
	next[u] = int32(u)
	dist[u] = 0
	// Canonical next hops, resolved iteratively in BFS level order: a
	// depth-1 destination is its own next hop; a deeper destination
	// inherits the next hop of its smallest-id previous-level
	// H-neighbor, which the level ordering has already finalized.
	for _, v := range s.queue[1:] {
		d := sd[v]
		dist[v] = d
		if d == 1 {
			next[v] = v
			continue
		}
		for _, x := range h.Neighbors(int(v)) {
			if sd[x] == d-1 {
				next[v] = next[x]
				break
			}
		}
	}
}

// BuildTable computes u's forwarding table over its view H_u,
// allocating fresh rows and scratch.
func BuildTable(g, h graph.View, u int) Table {
	n := g.N()
	s := NewTableScratch(n)
	t := Table{Owner: u, Next: make([]int32, n), Dist: make([]int32, n)}
	s.BuildTableInto(g, h, u, t.Next, t.Dist)
	return t
}

// BuildTablesInto computes every owner's table into tables (len n,
// rows pre-sized) with one shared scratch.
func BuildTablesInto(g, h graph.View, tables []Table) {
	s := NewTableScratch(g.N())
	for u := 0; u < g.N(); u++ {
		tables[u].Owner = u
		s.BuildTableInto(g, h, u, tables[u].Next, tables[u].Dist)
	}
}

// BuildTables computes every router's table with the scalar builder.
func BuildTables(g, h graph.View) []Table {
	out := NewTables(g.N())
	BuildTablesInto(g, h, out)
	return out
}

func TestTableMatchesViewDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(30, 60, rng)
	h := spanner.LowStretch(g, 0.5).Graph()
	for u := 0; u < g.N(); u++ {
		tab := BuildTable(g, h, u)
		want := spanner.ViewBFS(g, h, u)
		for v := 0; v < g.N(); v++ {
			if tab.Dist[v] != want[v] {
				t.Fatalf("u=%d v=%d: table dist %d, view BFS %d", u, v, tab.Dist[v], want[v])
			}
		}
	}
}

func TestTableNextHopsAreNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomConnected(25, 50, rng)
	h := spanner.Exact(g).Graph()
	for u := 0; u < g.N(); u++ {
		tab := BuildTable(g, h, u)
		for v := 0; v < g.N(); v++ {
			nh := tab.Next[v]
			if v == u {
				if int(nh) != u {
					t.Fatalf("self next hop %d", nh)
				}
				continue
			}
			if nh == -1 {
				if tab.Dist[v] != graph.Unreached {
					t.Fatalf("u=%d v=%d reachable but no next hop", u, v)
				}
				continue
			}
			if !g.HasEdge(u, int(nh)) {
				t.Fatalf("u=%d v=%d: next hop %d is not a neighbor", u, v, nh)
			}
		}
	}
}

func TestTableRouteExactSpannerIsShortest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnected(35, 70, rng)
	h := spanner.Exact(g).Graph()
	tables := BuildTables(g, h)
	d := graph.AllPairsDistances(g)
	for trial := 0; trial < 60; trial++ {
		s, tt := rng.Intn(g.N()), rng.Intn(g.N())
		r := TableRoute(tables, g, s, tt)
		if !r.OK {
			t.Fatalf("no table route %d→%d", s, tt)
		}
		if r.Hops != int(d[s][tt]) {
			t.Fatalf("table route %d→%d: %d hops, shortest %d", s, tt, r.Hops, d[s][tt])
		}
	}
}

// Property: hop-by-hop table routing over any of our remote-spanner
// families delivers within the construction's guarantee and never
// loops.
func TestQuickTableRouteWithinGuarantee(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(15+rng.Intn(20), 45, rng)
		res := spanner.LowStretch(g, 0.5)
		h := res.Graph()
		st := spanner.LowStretchOf(res.R)
		tables := BuildTables(g, h)
		d := graph.AllPairsDistances(g)
		for trial := 0; trial < 15; trial++ {
			s, tt := rng.Intn(g.N()), rng.Intn(g.N())
			r := TableRoute(tables, g, s, tt)
			if !r.OK {
				return false
			}
			if s != tt && !st.Holds(int64(d[s][tt]), int64(r.Hops)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRouteAgreesWithGreedyOnGuarantee(t *testing.T) {
	// Both data paths implement the §1 forwarding rule (move to a
	// neighbor with believed distance d−1). Tie-breaking can diverge —
	// the table follows its BFS tree, greedy the smallest-id argmin —
	// and later hops are evaluated in different views, so hop counts
	// need not be identical. What theory *does* promise for both:
	// delivery, and length ≤ α·d_G + β.
	rng := rand.New(rand.NewSource(4))
	g := randomConnected(30, 60, rng)
	h := spanner.TwoConnecting(g).Graph()
	st := spanner.NewStretch(2, -1)
	tables := BuildTables(g, h)
	d := graph.AllPairsDistances(g)
	for trial := 0; trial < 40; trial++ {
		s, tt := rng.Intn(g.N()), rng.Intn(g.N())
		a := TableRoute(tables, g, s, tt)
		b := GreedyRoute(g, h, s, tt)
		if !a.OK || !b.OK {
			t.Fatalf("delivery failed for %d→%d (table %v, greedy %v)", s, tt, a.OK, b.OK)
		}
		if s == tt || d[s][tt] < 2 {
			continue
		}
		if !st.Holds(int64(d[s][tt]), int64(a.Hops)) {
			t.Fatalf("table route %d→%d: %d hops vs d_G=%d breaks (2,−1)", s, tt, a.Hops, d[s][tt])
		}
		if !st.Holds(int64(d[s][tt]), int64(b.Hops)) {
			t.Fatalf("greedy route %d→%d: %d hops vs d_G=%d breaks (2,−1)", s, tt, b.Hops, d[s][tt])
		}
	}
}

// TestBuildTableDeepPath is the stack-safety regression for the
// next-hop resolution: on a 50k-vertex path graph the seed-era
// recursive resolve chained one stack frame per path vertex; the
// canonical rule resolves iteratively in BFS level order, so arbitrary
// depth costs O(1) stack. Both builders and the end-to-end route are
// exercised at full depth.
func TestBuildTableDeepPath(t *testing.T) {
	const n = 50_000
	g := gen.Path(n)
	h := g.Clone()
	tab := BuildTable(g, h, 0)
	for v := 1; v < n; v++ {
		if tab.Dist[v] != int32(v) || tab.Next[v] != 1 {
			t.Fatalf("owner 0 dest %d: (next %d, dist %d), want (1, %d)", v, tab.Next[v], tab.Dist[v], v)
		}
	}
	// Batched, subset form: one owner, full-depth sweep.
	all := make([]Table, n)
	all[0] = Table{Next: make([]int32, n), Dist: make([]int32, n)}
	NewBatchBuilder(n).BuildInto(g, h, all, []int32{0})
	for v := 0; v < n; v++ {
		if all[0].Next[v] != tab.Next[v] || all[0].Dist[v] != tab.Dist[v] {
			t.Fatalf("batched deep path diverges at %d", v)
		}
	}
	// End-to-end full-length walk (all-owners tables, so a smaller
	// path: the stack-depth regression above is what needs 50k).
	const wn = 3000
	wg := gen.Path(wn)
	tables := BuildTables(wg, wg.Clone())
	r := TableRoute(tables, wg, 0, wn-1)
	if !r.OK || r.Hops != wn-1 {
		t.Fatalf("deep route: ok=%v hops=%d reason=%v", r.OK, r.Hops, r.Reason)
	}
}

// TestTableRouteReasons pins the typed failure contract: genuinely
// missing connectivity, stale table state, and inconsistent-table
// loops are distinguishable, with the failing node reported.
func TestTableRouteReasons(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3) // 4 isolated
	tables := BuildTables(g, g.Clone())

	if r := TableRoute(tables, g, 0, 4); r.OK || r.Reason != RouteUnreachable || r.At != 0 {
		t.Fatalf("unreachable: %+v", r)
	}
	// The physical link {1,2} vanishes; node 1's table still names 2.
	phys := g.Clone()
	phys.RemoveEdge(1, 2)
	if r := TableRoute(tables, phys, 0, 3); r.OK || r.Reason != RouteStaleLink || r.At != 1 {
		t.Fatalf("stale: %+v", r)
	}
	// Forged mutually-inconsistent tables: 0 and 1 point at each other.
	forged := BuildTables(g, g.Clone())
	forged[0].Next[3] = 1
	forged[1].Next[3] = 0
	if r := TableRoute(forged, g, 0, 3); r.OK || r.Reason != RouteTrapped {
		t.Fatalf("trapped: %+v", r)
	}
	// Delivery reports RouteDelivered.
	if r := TableRoute(tables, g, 0, 3); !r.OK || r.Reason != RouteDelivered || r.At != 3 {
		t.Fatalf("delivered: %+v", r)
	}
	for _, want := range []struct {
		r    RouteReason
		name string
	}{{RouteDelivered, "delivered"}, {RouteUnreachable, "unreachable"},
		{RouteStaleLink, "stale-link"}, {RouteTrapped, "trapped"}, {RouteReason(99), "unknown"}} {
		if want.r.String() != want.name {
			t.Fatalf("RouteReason(%d).String() = %q", want.r, want.r.String())
		}
	}
}

func TestTableRouteUnreachable(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	tables := BuildTables(g, g.Clone())
	if r := TableRoute(tables, g, 0, 3); r.OK {
		t.Fatal("routed across components")
	}
	if r := TableRoute(tables, g, 0, 0); !r.OK || r.Hops != 0 {
		t.Fatal("self route")
	}
	_ = gen.Path // keep fixture import alive for readability
}
