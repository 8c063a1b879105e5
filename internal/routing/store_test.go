package routing

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"remspan/internal/dynamic"
	"remspan/internal/graph"
	"remspan/internal/mobility"
	"remspan/internal/testutil"
)

// storeFixture builds a maintainer+store over a connected random
// graph with the kgreedy1 (exact, R=1) construction.
func storeFixture(n, extra int, seed int64) (*graph.Graph, *Store) {
	rng := rand.New(rand.NewSource(seed))
	g := randomConnected(n, extra, rng)
	spec := dynamic.Builders()[0] // kgreedy1
	m := dynamic.New(g, spec.Radius, spec.Build)
	return g, NewStore(m)
}

// mobilityStore builds a kgreedy1 store over a random-waypoint fleet of
// n nodes on a unit-disk graph of mean degree 8 (the geometry of the
// cmd/bench fleets), with per-tick speeds in [minSpeed, maxSpeed].
func mobilityStore(n int, minSpeed, maxSpeed float64, seed int64) (*mobility.Tracker, *Store) {
	side := math.Sqrt(math.Pi * float64(n) / 8)
	w := mobility.NewWaypoint(n, side, minSpeed, maxSpeed, rand.New(rand.NewSource(seed)))
	tr := mobility.NewTracker(w, 1)
	spec := dynamic.Builders()[0]
	return tr, NewStore(dynamic.New(tr.Graph(), spec.Radius, spec.Build))
}

// trackerBatch turns the tracker's next tick into a change batch,
// reusing buf.
func trackerBatch(tr *mobility.Tracker, buf []dynamic.Change) []dynamic.Change {
	added, removed := tr.Tick()
	buf = buf[:0]
	for _, p := range removed {
		buf = append(buf, dynamic.Change{Kind: dynamic.RemoveEdge, U: int(p[0]), V: int(p[1])})
	}
	for _, p := range added {
		buf = append(buf, dynamic.Change{Kind: dynamic.AddEdge, U: int(p[0]), V: int(p[1])})
	}
	return buf
}

// churnPool returns distinct candidate pairs for toggling.
func churnPool(n, count int, rng *rand.Rand) [][2]int {
	seen := map[[2]int]bool{}
	var out [][2]int
	for len(out) < count {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		out = append(out, [2]int{u, v})
	}
	return out
}

// TestStoreColdStartMatchesScalar pins epoch 1 bit-identical to the
// scalar reference over the maintainer's graph and spanner.
func TestStoreColdStartMatchesScalar(t *testing.T) {
	_, st := storeFixture(60, 90, 1)
	m := st.Maintainer()
	want := BuildTables(m.Graph(), m.Spanner().Graph())
	tablesEqual(t, "cold", want, st.Epoch().Tables())
}

// TestStoreChurnSemantics drives batches through the store and pins
// the staleness contract after every batch: the spanner mirror tracks
// the maintainer exactly; every dirty owner's rows are bit-identical
// to a fresh scalar build on the post-batch graph+spanner; every clean
// owner's rows are carried over untouched (same backing arrays); and
// RebuildAll restores full bit-identity.
func TestStoreChurnSemantics(t *testing.T) {
	_, st := storeFixture(70, 100, 2)
	m := st.Maintainer()
	rng := rand.New(rand.NewSource(3))
	pool := churnPool(m.Graph().N(), 60, rng)
	scratch := NewTableScratch(m.Graph().N())
	next := make([]int32, m.Graph().N())
	dist := make([]int32, m.Graph().N())

	for round := 0; round < 12; round++ {
		prev := st.Epoch()
		batch := make([]dynamic.Change, 0, 6)
		for i := 0; i < 1+rng.Intn(5); i++ {
			p := pool[rng.Intn(len(pool))]
			kind := dynamic.AddEdge
			if m.Graph().HasEdge(p[0], p[1]) {
				kind = dynamic.RemoveEdge
			}
			batch = append(batch, dynamic.Change{Kind: kind, U: p[0], V: p[1]})
		}
		applied := st.ApplyBatch(batch)
		ep := st.Epoch()
		if applied == 0 {
			continue
		}
		if ep.Seq() != prev.Seq()+1 {
			t.Fatalf("round %d: epoch %d after %d", round, ep.Seq(), prev.Seq())
		}
		if !st.h.g.Equal(m.Spanner().Graph()) {
			t.Fatalf("round %d: spanner mirror diverged", round)
		}
		dirty := map[int32]bool{}
		for _, u := range m.DirtyRoots() {
			dirty[u] = true
		}
		hh := st.h.g
		for u := 0; u < m.Graph().N(); u++ {
			tab := ep.Tables()[u]
			if dirty[int32(u)] {
				scratch.BuildTableInto(m.Graph(), hh, u, next, dist)
				for v := range next {
					if tab.Next[v] != next[v] || tab.Dist[v] != dist[v] {
						t.Fatalf("round %d: dirty owner %d dest %d: (next %d, dist %d), want (%d, %d)",
							round, u, v, tab.Next[v], tab.Dist[v], next[v], dist[v])
					}
				}
			} else {
				if &tab.Next[0] != &prev.Tables()[u].Next[0] || &tab.Dist[0] != &prev.Tables()[u].Dist[0] {
					t.Fatalf("round %d: clean owner %d was rebuilt or copied", round, u)
				}
			}
		}
	}

	st.RebuildAll()
	want := BuildTables(m.Graph(), m.Spanner().Graph())
	tablesEqual(t, "rebuild-all", want, st.Epoch().Tables())
}

// TestStoreStaleVsUnreachable pins the typed-reason contract end to
// end: a physical view ahead of the control plane produces
// RouteStaleLink (not RouteUnreachable), the offending owner is queued
// and rebuilt by the next batch, and genuinely missing connectivity
// reports RouteUnreachable.
func TestStoreStaleVsUnreachable(t *testing.T) {
	g := graph.New(6)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1) // path 0-1-2-3-4; 5 isolated
	}
	spec := dynamic.Builders()[0]
	st := NewStore(dynamic.New(g, spec.Radius, spec.Build))
	r := st.NewReader()

	// Unreachable: the isolated vertex.
	if rt := r.RouteOn(st.Maintainer().Graph(), 0, 5); rt.OK || rt.Reason != RouteUnreachable {
		t.Fatalf("isolated target: %+v", rt)
	}

	// The physical network drops {2,3} before the control plane hears
	// about it.
	phys := st.Maintainer().Graph().Clone()
	phys.RemoveEdge(2, 3)
	rt := r.RouteOn(phys, 0, 4)
	if rt.OK || rt.Reason != RouteStaleLink || rt.At != 2 {
		t.Fatalf("stale link: %+v", rt)
	}

	// The stale mark alone (an empty batch) must force a republish of
	// the marked owner.
	seq := st.Epoch().Seq()
	st.ApplyBatch(nil)
	if st.Epoch().Seq() != seq+1 {
		t.Fatal("stale mark did not trigger a republish")
	}

	// Once the control plane applies the change, the route resolves
	// around... there is no way around on a path graph: it reports
	// unreachable, not stale.
	st.ApplyBatch([]dynamic.Change{{Kind: dynamic.RemoveEdge, U: 2, V: 3}})
	if rt := r.RouteOn(phys, 0, 4); rt.OK || rt.Reason != RouteUnreachable {
		t.Fatalf("after catch-up: %+v", rt)
	}
	// And a target still connected routes fine.
	if rt := r.RouteOn(phys, 0, 2); !rt.OK || rt.Hops != 2 {
		t.Fatalf("surviving route: %+v", rt)
	}
}

// TestStoreStaleRerouteOnFresherEpoch pins RouteOn's retry: when the
// writer has already published a repaired epoch, the reader resolves
// the route instead of reporting stale.
func TestStoreStaleRerouteOnFresherEpoch(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 2) // 0-1-2 short, 0-3-4-2 detour
	spec := dynamic.Builders()[0]
	st := NewStore(dynamic.New(g, spec.Radius, spec.Build))
	r := st.NewReader()

	phys := st.Maintainer().Graph().Clone()
	phys.RemoveEdge(1, 2)
	// Control plane catches up first; the reader's walk then finds the
	// detour via the fresh epoch with no stale verdict.
	st.ApplyBatch([]dynamic.Change{{Kind: dynamic.RemoveEdge, U: 1, V: 2}})
	rt := r.RouteOn(phys, 0, 2)
	if !rt.OK || rt.Hops != 3 {
		t.Fatalf("detour route: %+v", rt)
	}
}

// TestStoreConcurrentReaders hammers lock-free readers against a
// churning writer under the race detector: every observed row must be
// internally coherent — next hop and believed distance agree on
// reachability, in range, with the owner's self-entries intact. (A
// recycled row refilled mid-read would violate these; note an epoch
// may legitimately mix fresh and bounded-stale rows, so cross-row
// monotonicity is not an invariant here.)
func TestStoreConcurrentReaders(t *testing.T) {
	_, st := storeFixture(80, 120, 4)
	m := st.Maintainer()
	n := m.Graph().N()
	rngW := rand.New(rand.NewSource(5))
	pool := churnPool(n, 50, rngW)

	var stop atomic.Bool
	var wg sync.WaitGroup
	const readers = 4
	errs := make(chan string, readers)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			r := st.NewReader()
			for !stop.Load() {
				s, tt := rng.Intn(n), rng.Intn(n)
				ep := r.enter()
				cur, hops := s, 0
				for cur != tt && hops <= n {
					tab := ep.tables[cur]
					nh, d := tab.Next[tt], tab.Dist[tt]
					if (nh < 0) != (d == graph.Unreached) || nh >= int32(n) ||
						tab.Next[cur] != int32(cur) || tab.Dist[cur] != 0 {
						errs <- "row invariant violated: torn row?"
						r.exit()
						return
					}
					if nh < 0 {
						break
					}
					cur, hops = int(nh), hops+1
				}
				r.exit()
				if r.NextHop(s, tt) == -2 {
					errs <- "impossible next hop"
					return
				}
				_ = r.Route(s, tt)
			}
		}(int64(100 + w))
	}
	for round := 0; round < 60; round++ {
		batch := make([]dynamic.Change, 0, 8)
		for i := 0; i < 1+rngW.Intn(7); i++ {
			p := pool[rngW.Intn(len(pool))]
			kind := dynamic.AddEdge
			if m.Graph().HasEdge(p[0], p[1]) {
				kind = dynamic.RemoveEdge
			}
			batch = append(batch, dynamic.Change{Kind: kind, U: p[0], V: p[1]})
		}
		st.ApplyBatch(batch)
	}
	stop.Store(true)
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
}

// TestStoreApplyBatchZeroAlloc pins the warm-tick writer path
// allocation-free: a closed batch of add+remove toggles (net-zero
// change) whose dirty balls fill more than one 64-owner group, with
// prompt/idle readers, must recycle every buffer through the
// reclamation pools — serially at GOMAXPROCS 1 and on the parallel
// publish fan-out at GOMAXPROCS 2.
func TestStoreApplyBatchZeroAlloc(t *testing.T) {
	g, st := storeFixture(90, 140, 6)
	// A closed batch: add fresh edges across the graph, then remove them
	// again.
	var batch []dynamic.Change
	for a := 0; a < g.N() && len(batch) < 12; a += 7 {
		if b := (a + g.N()/2) % g.N(); !g.HasEdge(a, b) {
			batch = append(batch, dynamic.Change{Kind: dynamic.AddEdge, U: a, V: b})
		}
	}
	for i := len(batch) - 1; i >= 0; i-- {
		batch = append(batch, dynamic.Change{Kind: dynamic.RemoveEdge, U: batch[i].U, V: batch[i].V})
	}
	for i := 0; i < 6; i++ { // warm pools, delta rows, map buckets
		st.ApplyBatch(batch)
	}
	if k := len(st.DirtyOwners()); k <= 64 {
		t.Fatalf("batch dirties %d owners, want more than one group of 64", k)
	}
	testutil.PinAllocs(t, "warm ApplyBatch", 10, func() {
		st.ApplyBatch(batch)
	})
	testutil.PinAllocsAt(t, "warm parallel ApplyBatch", 2, 10, func() {
		st.ApplyBatch(batch)
	})
}

// TestStorePublishWidths pins the publish fan-out at GOMAXPROCS 1, 2
// and 7 on mobility churn whose batches dirty more than two groups of
// owners: every dirty row is bit-identical to the scalar builder, every
// clean row is carried over by reference, and DirtyOwners — owners
// marked stale through MarkStale included — is sorted, unique and the
// same at every width.
func TestStorePublishWidths(t *testing.T) {
	const n, ticks = 500, 6
	var want [][]int32 // DirtyOwners per tick at the first width
	for _, procs := range []int{1, 2, 7} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			tr, st := mobilityStore(n, 0.01, 0.05, 21)
			m := st.Maintainer()
			tablesEqual(t, fmt.Sprintf("GOMAXPROCS=%d cold", procs),
				BuildTables(m.Graph(), m.Spanner().Graph()), st.Epoch().Tables())
			scratch := NewTableScratch(n)
			next, dist := make([]int32, n), make([]int32, n)
			var batch []dynamic.Change
			most := 0
			for tick := 0; tick < ticks; tick++ {
				var marked []int32
				if tick%2 == 1 {
					for u := tick; u < n; u += 37 {
						st.MarkStale(u)
						marked = append(marked, int32(u))
					}
				}
				batch = trackerBatch(tr, batch)
				if tick == ticks-1 {
					batch = batch[:0] // the stale marks alone must republish
				}
				prev := st.Epoch()
				expect := marked
				if st.ApplyBatch(batch) > 0 {
					expect = append(expect, m.DirtyRoots()...)
				}
				slices.Sort(expect)
				expect = slices.Compact(expect)
				owners := st.DirtyOwners()
				ctx := fmt.Sprintf("GOMAXPROCS=%d tick %d", procs, tick)
				if !slices.Equal(owners, expect) {
					t.Fatalf("%s: DirtyOwners is not the sorted union of dirty roots and stale marks", ctx)
				}
				most = max(most, len(owners))
				ep := st.Epoch()
				dirty := make([]bool, n)
				for _, u := range owners {
					dirty[u] = true
				}
				for u := 0; u < n; u++ {
					tab, old := ep.Tables()[u], prev.Tables()[u]
					if !dirty[u] {
						if &tab.Next[0] != &old.Next[0] || &tab.Dist[0] != &old.Dist[0] {
							t.Fatalf("%s: clean owner %d was rebuilt or copied", ctx, u)
						}
						continue
					}
					scratch.BuildTableInto(m.Graph(), st.h.g, u, next, dist)
					if tab.Owner != u || !slices.Equal(tab.Next, next) || !slices.Equal(tab.Dist, dist) {
						t.Fatalf("%s: dirty owner %d differs from the scalar build", ctx, u)
					}
				}
				if procs == 1 {
					want = append(want, slices.Clone(owners))
				} else if !slices.Equal(owners, want[tick]) {
					t.Fatalf("%s: dirty owners differ from GOMAXPROCS=1", ctx)
				}
			}
			if most <= 128 {
				t.Fatalf("GOMAXPROCS=%d: largest batch dirtied %d owners, want > 128", procs, most)
			}
		}()
	}
}

// BenchmarkStoreApplyBatch times one writer tick (one op) of mobility
// churn at the cmd/bench fleet-churn geometry — n=1000, mean degree 8,
// speeds 0.01–0.05, ~900 dirty owners a tick — through
// Store.ApplyBatch: maintainer repair plus publish. The tracker's diff
// runs outside the timer. Run it with -cpu 1,2 to see the publish
// fan-out scale.
func BenchmarkStoreApplyBatch(b *testing.B) {
	tr, st := mobilityStore(1000, 0.01, 0.05, 1)
	var batch []dynamic.Change
	for i := 0; i < 3; i++ { // warm pools and builders
		batch = trackerBatch(tr, batch)
		st.ApplyBatch(batch)
	}
	dirty := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		batch = trackerBatch(tr, batch)
		b.StartTimer()
		st.ApplyBatch(batch)
		dirty += len(st.DirtyOwners())
	}
	b.ReportMetric(float64(dirty)/float64(b.N), "dirty/tick")
}

// TestStoreReclamationUnderReaderStall pins safety over throughput: a
// reader parked inside an old epoch must keep its buffers alive across
// many publishes, and they are recycled only after it leaves. It also
// pins the boundedness half of the contract: a leaked stalled reader
// *bounds* writer-side retention at maxRetired entries — it never
// grows the retirement queue without limit — because past the cap the
// writer drops the oldest entries to the GC instead of holding them.
func TestStoreReclamationUnderReaderStall(t *testing.T) {
	_, st := storeFixture(50, 70, 7)
	m := st.Maintainer()
	r := st.NewReader()
	ep := r.enter() // park inside epoch 1
	next0 := &ep.tables[0].Next[0]

	rng := rand.New(rand.NewSource(8))
	pool := churnPool(m.Graph().N(), 30, rng)
	churn := func(rounds int) {
		for round := 0; round < rounds; round++ {
			p := pool[rng.Intn(len(pool))]
			kind := dynamic.AddEdge
			if m.Graph().HasEdge(p[0], p[1]) {
				kind = dynamic.RemoveEdge
			}
			st.ApplyBatch([]dynamic.Change{{Kind: kind, U: p[0], V: p[1]}})
		}
	}
	churn(20)
	if len(st.retired) == 0 {
		t.Fatal("expected retirement backlog while a reader stalls")
	}
	// The parked reader's view must still be the untouched epoch-1 data.
	if ep.Seq() != 1 || &ep.tables[0].Next[0] != next0 {
		t.Fatal("stalled reader's epoch was recycled under it")
	}
	// Keep churning well past the retention cap: the backlog must
	// saturate at maxRetired, not track the publish count.
	churn(3 * maxRetired)
	if len(st.retired) > maxRetired {
		t.Fatalf("stalled reader grew the retirement queue to %d entries (cap %d)",
			len(st.retired), maxRetired)
	}
	if ep.Seq() != 1 || &ep.tables[0].Next[0] != next0 {
		t.Fatal("stalled reader's epoch was recycled after the cap kicked in")
	}
	r.exit()
	st.ApplyBatch([]dynamic.Change{{Kind: dynamic.AddEdge, U: pool[0][0], V: pool[0][1]}})
	st.ApplyBatch([]dynamic.Change{{Kind: dynamic.RemoveEdge, U: pool[0][0], V: pool[0][1]}})
	if len(st.retired) > 2 {
		t.Fatalf("backlog not drained after reader left: %d entries", len(st.retired))
	}
}

// TestStoreReaderLookups pins the reader lookup surface against the
// published tables directly.
func TestStoreReaderLookups(t *testing.T) {
	_, st := storeFixture(40, 60, 9)
	m := st.Maintainer()
	n := m.Graph().N()
	r := st.NewReader()
	tabs := st.Epoch().Tables()
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 200; trial++ {
		s, tt := rng.Intn(n), rng.Intn(n)
		if got, want := r.NextHop(s, tt), tabs[s].Next[tt]; got != want {
			t.Fatalf("NextHop(%d,%d) = %d, want %d", s, tt, got, want)
		}
		if got, want := r.Dist(s, tt), tabs[s].Dist[tt]; got != want {
			t.Fatalf("Dist(%d,%d) = %d, want %d", s, tt, got, want)
		}
		rt := r.Route(s, tt)
		ref := TableRoute(tabs, m.Graph(), s, tt)
		if rt.OK != ref.OK || rt.Hops != ref.Hops || rt.Reason != ref.Reason {
			t.Fatalf("Route(%d,%d) = %+v, TableRoute %+v", s, tt, rt, ref)
		}
	}
	if rt := r.Route(3, 3); !rt.OK || rt.Hops != 0 {
		t.Fatalf("self route: %+v", rt)
	}
}

// TestStoreReaderClose pins that a closed reader stops participating
// in reclamation: a parked reader blocks buffer recycling, closing it
// (after exiting) releases the backlog for the next batches.
func TestStoreReaderClose(t *testing.T) {
	_, st := storeFixture(40, 60, 11)
	m := st.Maintainer()
	r := st.NewReader()
	if rt := r.Route(0, 1); !rt.OK {
		t.Fatalf("route: %+v", rt)
	}
	r.enter() // park
	pool := churnPool(m.Graph().N(), 10, rand.New(rand.NewSource(12)))
	toggle := func(i int) {
		p := pool[i%len(pool)]
		kind := dynamic.AddEdge
		if m.Graph().HasEdge(p[0], p[1]) {
			kind = dynamic.RemoveEdge
		}
		st.ApplyBatch([]dynamic.Change{{Kind: kind, U: p[0], V: p[1]}})
	}
	for i := 0; i < 8; i++ {
		toggle(i)
	}
	if len(st.retired) == 0 {
		t.Fatal("parked reader should hold a retirement backlog")
	}
	r.exit()
	r.Close()
	toggle(8)
	toggle(9)
	if len(st.retired) > 2 {
		t.Fatalf("backlog survived Close: %d entries", len(st.retired))
	}
}

// TestStoreReaderDoubleClose pins that Close is idempotent: closing an
// already-closed reader is a no-op, and it never unregisters a
// *different* reader that happens to occupy the registry slot — the
// failure mode of a naive scan-and-remove under double-close.
func TestStoreReaderDoubleClose(t *testing.T) {
	_, st := storeFixture(30, 45, 13)
	a := st.NewReader()
	b := st.NewReader()
	a.Close()
	a.Close() // must not panic, must not touch b's registration
	a.Close()
	st.readersMu.Lock()
	live := len(st.readers)
	st.readersMu.Unlock()
	if live != 1 {
		t.Fatalf("after double-closing a, %d readers registered, want 1 (b)", live)
	}
	// b must still participate in reclamation: park it, churn, and the
	// backlog must be held on its behalf.
	b.enter()
	m := st.Maintainer()
	pool := churnPool(m.Graph().N(), 8, rand.New(rand.NewSource(14)))
	for i := 0; i < 6; i++ {
		p := pool[i%len(pool)]
		kind := dynamic.AddEdge
		if m.Graph().HasEdge(p[0], p[1]) {
			kind = dynamic.RemoveEdge
		}
		st.ApplyBatch([]dynamic.Change{{Kind: kind, U: p[0], V: p[1]}})
	}
	if len(st.retired) == 0 {
		t.Fatal("double-closed reader a took reader b's registration with it")
	}
	b.exit()
	b.Close()
	b.Close()
}
