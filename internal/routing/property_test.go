package routing

import (
	"math/rand"
	"testing"

	"remspan/internal/graph"
	"remspan/internal/spanner"
	"remspan/internal/testutil"
)

// spannerBuilders returns the four production spanner constructions at
// their benchmark parameterizations.
func spannerBuilders() map[string]func(*graph.Graph) *graph.Graph {
	return map[string]func(*graph.Graph) *graph.Graph{
		"exact":      func(g *graph.Graph) *graph.Graph { return spanner.Exact(g).Graph() },
		"kconn3":     func(g *graph.Graph) *graph.Graph { return spanner.KConnecting(g, 3).Graph() },
		"twoconn":    func(g *graph.Graph) *graph.Graph { return spanner.TwoConnecting(g).Graph() },
		"lowstretch": func(g *graph.Graph) *graph.Graph { return spanner.LowStretch(g, 0.5).Graph() },
	}
}

// TestRoutingPaperBound is the differential property test of the
// forwarding plane: for every spanner builder × generator family, the
// table-driven walk, the greedy walk, and the batched-table walk all
// satisfy the paper's §1 guarantee — delivery whenever H_s connects
// the pair, route length at most d_{H_s}(s, t), and (for the
// table paths, whose tables come from one coherent build) believed
// distance strictly decreasing at every hop — and all report
// RouteUnreachable when H_s does not connect the pair.
func TestRoutingPaperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for famName, g := range routingFamilies() {
		for bName, build := range spannerBuilders() {
			h := build(g)
			tables := BuildTables(g, h)
			batched := BuildTablesBatched(g, graph.NewCSR(h))
			rs := NewRouteScratch(g.N())
			for trial := 0; trial < 60; trial++ {
				s, tt := rng.Intn(g.N()), rng.Intn(g.N())
				if s == tt {
					continue
				}
				ds := spanner.ViewBFS(g, h, s)[tt]
				ctx := famName + "/" + bName
				for pathName, route := range map[string]Route{
					"table":   TableRoute(tables, g, s, tt),
					"batched": TableRoute(batched, g, s, tt),
					"greedy":  rs.GreedyRoute(g, h, s, tt),
				} {
					if ds == graph.Unreached {
						if route.OK || route.Reason != RouteUnreachable {
							t.Fatalf("%s/%s %d→%d: H_s-disconnected pair returned %v/%v",
								ctx, pathName, s, tt, route.OK, route.Reason)
						}
						continue
					}
					if !route.OK {
						t.Fatalf("%s/%s %d→%d: no route (reason %v), d_Hs=%d",
							ctx, pathName, s, tt, route.Reason, ds)
					}
					if int32(route.Hops) > ds {
						t.Fatalf("%s/%s %d→%d: %d hops > d_Hs=%d",
							ctx, pathName, s, tt, route.Hops, ds)
					}
					if route.Path[0] != int32(s) || route.Path[len(route.Path)-1] != int32(tt) {
						t.Fatalf("%s/%s %d→%d: bad endpoints %v", ctx, pathName, s, tt, route.Path)
					}
				}
				if ds == graph.Unreached {
					continue
				}
				// Strictly decreasing believed distance along the table
				// route (single coherent build).
				r := TableRoute(tables, g, s, tt)
				for i := 0; i+1 < len(r.Path); i++ {
					du := tables[r.Path[i]].Dist[tt]
					dw := tables[r.Path[i+1]].Dist[tt]
					if dw >= du {
						t.Fatalf("%s %d→%d: believed distance %d→%d at hop %d does not decrease",
							ctx, s, tt, du, dw, i)
					}
				}
			}
		}
	}
}

// TestGreedyMatchesReference fuzz-style-pins the scratch-threaded
// GreedyRoute hop-for-hop equal to the seed implementation (kept below
// as greedyRouteRef) across families and spanner variants.
func TestGreedyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for famName, g := range routingFamilies() {
		for hName, h := range routingSpanners(g, rng) {
			rs := NewRouteScratch(g.N())
			for trial := 0; trial < 80; trial++ {
				s, tt := rng.Intn(g.N()), rng.Intn(g.N())
				want := greedyRouteRef(g, h, s, tt)
				got := rs.GreedyRoute(g, h, s, tt)
				if want.OK != got.OK || want.Hops != got.Hops ||
					len(want.Path) != len(got.Path) {
					t.Fatalf("%s/%s %d→%d: ref %+v, got %+v", famName, hName, s, tt, want, got)
				}
				for i := range want.Path {
					if want.Path[i] != got.Path[i] {
						t.Fatalf("%s/%s %d→%d: path diverges at %d: %v vs %v",
							famName, hName, s, tt, i, want.Path, got.Path)
					}
				}
			}
		}
	}
}

// TestGreedyRouteZeroAlloc pins the warm scratch allocation-free
// (satellite: no fresh distance slice per hop).
func TestGreedyRouteZeroAlloc(t *testing.T) {
	g := routingFamilies()["udg"]
	h := spanner.Exact(g).Graph()
	cg, ch := graph.NewCSR(g), graph.NewCSR(h)
	rs := NewRouteScratch(g.N())
	rs.GreedyRoute(cg, ch, 0, g.N()-1) // warm
	testutil.PinAllocs(t, "warm GreedyRoute", 20, func() {
		rs.GreedyRoute(cg, ch, 0, g.N()-1)
		rs.GreedyRoute(cg, ch, g.N()/2, 1)
	})
}

// FuzzGreedyRouteEquivalence drives random family/spanner shapes
// through the scratch path and the seed reference, requiring identical
// routes (UDG/ER/grid/star incl. disconnected, per the churn-pin
// pattern of PR 2).
func FuzzGreedyRouteEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(40), uint8(30))
	f.Add(int64(2), uint8(1), uint8(80), uint8(70))
	f.Add(int64(3), uint8(2), uint8(25), uint8(0))
	f.Add(int64(4), uint8(3), uint8(61), uint8(99))
	f.Add(int64(5), uint8(4), uint8(13), uint8(50))
	f.Fuzz(func(t *testing.T, seed int64, family, size, drop uint8) {
		g, h := fuzzGraphSpanner(seed, family, size, drop)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		rs := NewRouteScratch(g.N())
		for trial := 0; trial < 10; trial++ {
			s, tt := rng.Intn(g.N()), rng.Intn(g.N())
			want := greedyRouteRef(g, h, s, tt)
			got := rs.GreedyRoute(g, h, s, tt)
			if want.OK != got.OK || want.Hops != got.Hops || len(want.Path) != len(got.Path) {
				t.Fatalf("%d→%d: ref %+v, got %+v", s, tt, want, got)
			}
			for i := range want.Path {
				if want.Path[i] != got.Path[i] {
					t.Fatalf("%d→%d: path diverges at %d", s, tt, i)
				}
			}
		}
	})
}

// greedyRouteRef is the seed GreedyRoute/viewBFSFrom pair, kept
// verbatim as the equivalence oracle for the scratch-threaded
// production path.
func greedyRouteRef(g, h *graph.Graph, s, t int) Route {
	if s == t {
		return Route{Path: []int32{int32(s)}, OK: true}
	}
	maxHops := g.N() + 1
	path := []int32{int32(s)}
	cur := s
	for hops := 0; hops < maxHops; hops++ {
		if cur == t {
			return Route{Path: path, Hops: len(path) - 1, OK: true}
		}
		if g.HasEdge(cur, t) {
			path = append(path, int32(t))
			cur = t
			continue
		}
		d := viewBFSFromRef(g, h, cur, t)
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
			return Route{}
		}
		path = append(path, best)
		cur = int(best)
	}
	return Route{}
}

func viewBFSFromRef(g, h *graph.Graph, owner, src int) []int32 {
	n := g.N()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = graph.Unreached
	}
	dist[src] = 0
	queue := []int32{int32(src)}
	ownerNb := g.Neighbors(owner)
	inOwnerNb := func(v int32) bool {
		return g.HasEdge(owner, int(v))
	}
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		push := func(v int32) {
			if dist[v] == graph.Unreached {
				dist[v] = dist[x] + 1
				queue = append(queue, v)
			}
		}
		for _, v := range h.Neighbors(int(x)) {
			push(v)
		}
		if int(x) == owner {
			for _, v := range ownerNb {
				push(v)
			}
		} else if inOwnerNb(x) {
			push(int32(owner))
		}
	}
	return dist
}
