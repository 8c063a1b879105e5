package routing

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"remspan/internal/dynamic"
	"remspan/internal/graph"
	"remspan/internal/mobility"
	"remspan/internal/reference"
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

// cloneTables deep-copies a table set, so rows the store later
// rebuilds in place can be compared against it by value.
func cloneTables(tables []Table) []Table {
	out := NewTables(len(tables))
	for u, tab := range tables {
		copy(out[u].Next, tab.Next)
		copy(out[u].Dist, tab.Dist)
	}
	return out
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
// the staleness contract after every batch: the store's derived H is
// the maintainer's spanner exactly; every dirty owner's rows are
// bit-identical to a fresh scalar build on the post-batch
// graph+spanner; every clean owner's rows equal, value for value, a
// copy taken before the batch (an in-place rebuild that overwrote a
// clean row fails here); and RebuildAll restores full bit-identity.
func TestStoreChurnSemantics(t *testing.T) {
	_, st := storeFixture(70, 100, 2)
	m := st.Maintainer()
	rng := rand.New(rand.NewSource(3))
	g := m.View()
	pool := churnPool(g.N(), 60, rng)
	scratch := NewTableScratch(g.N())
	next := make([]int32, g.N())
	dist := make([]int32, g.N())

	for round := 0; round < 12; round++ {
		prevSeq := st.Epoch().Seq()
		prev := cloneTables(st.Epoch().Tables())
		batch := make([]dynamic.Change, 0, 6)
		for i := 0; i < 1+rng.Intn(5); i++ {
			p := pool[rng.Intn(len(pool))]
			kind := dynamic.AddEdge
			if reference.HasEdge(g, p[0], p[1]) {
				kind = dynamic.RemoveEdge
			}
			batch = append(batch, dynamic.Change{Kind: kind, U: p[0], V: p[1]})
		}
		applied := st.ApplyBatch(batch)
		ep := st.Epoch()
		if applied == 0 {
			if ep.Seq() != prevSeq {
				t.Fatalf("round %d: a batch with no effect advanced the epoch", round)
			}
			continue
		}
		if ep.Seq() != prevSeq+1 {
			t.Fatalf("round %d: epoch %d after %d", round, ep.Seq(), prevSeq)
		}
		if !reference.Equal(st.h, m.Spanner().Graph()) {
			t.Fatalf("round %d: derived H differs from the maintainer's spanner", round)
		}
		dirty := map[int32]bool{}
		for _, u := range m.DirtyRoots() {
			dirty[u] = true
		}
		hh := st.h
		for u := 0; u < g.N(); u++ {
			want, from := prev[u], "the pre-batch copy"
			if dirty[int32(u)] {
				scratch.BuildTableInto(g, hh, u, next, dist)
				want, from = Table{Owner: u, Next: next, Dist: dist}, "a fresh scalar build"
			}
			tab := ep.Tables()[u]
			for v := range want.Next {
				if tab.Next[v] != want.Next[v] || tab.Dist[v] != want.Dist[v] {
					t.Fatalf("round %d: owner %d dest %d: (next %d, dist %d), %s has (%d, %d)",
						round, u, v, tab.Next[v], tab.Dist[v], from, want.Next[v], want.Dist[v])
				}
			}
		}
	}

	st.RebuildAll()
	want := BuildTables(m.Graph(), m.Spanner().Graph())
	tablesEqual(t, "rebuild-all", want, st.Epoch().Tables())
}

// TestStoreApplyBatchZeroAlloc pins the warm-tick writer path
// allocation-free: a closed batch of add+remove toggles (net-zero
// change) whose dirty balls fill more than one 64-owner group must
// rebuild its rows in place without allocating — serially at
// GOMAXPROCS 1 and on the parallel publish fan-out at GOMAXPROCS 2.
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
// clean row equals, value for value, a copy taken before the batch,
// and DirtyOwners is the maintainer's sorted dirty-root set, the same
// at every width. A final empty batch rebuilds nothing and leaves the
// epoch where it was.
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
				batch = trackerBatch(tr, batch)
				if tick == ticks-1 {
					batch = batch[:0]
				}
				prevSeq := st.Epoch().Seq()
				prev := cloneTables(st.Epoch().Tables())
				var expect []int32
				if st.ApplyBatch(batch) > 0 {
					expect = m.DirtyRoots()
				}
				owners := st.DirtyOwners()
				ctx := fmt.Sprintf("GOMAXPROCS=%d tick %d", procs, tick)
				if !slices.Equal(owners, expect) {
					t.Fatalf("%s: DirtyOwners is not the maintainer's dirty roots", ctx)
				}
				if wantSeq := prevSeq + uint64(min(len(owners), 1)); st.Epoch().Seq() != wantSeq {
					t.Fatalf("%s: epoch %d after %d with %d dirty owners", ctx, st.Epoch().Seq(), prevSeq, len(owners))
				}
				most = max(most, len(owners))
				ep := st.Epoch()
				dirty := make([]bool, n)
				for _, u := range owners {
					dirty[u] = true
				}
				// The reference reads the maintainer's graph and spanner,
				// not the store's derived H, so an H derived from the
				// wrong trees fails here.
				g, h := m.View(), graph.NewCSR(m.Spanner().Graph())
				for u := 0; u < n; u++ {
					tab := ep.Tables()[u]
					if !dirty[u] {
						if !slices.Equal(tab.Next, prev[u].Next) || !slices.Equal(tab.Dist, prev[u].Dist) {
							t.Fatalf("%s: clean owner %d changed", ctx, u)
						}
						continue
					}
					scratch.BuildTableInto(g, h, u, next, dist)
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
	for i := 0; i < 3; i++ { // warm the builders and delta rows
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
