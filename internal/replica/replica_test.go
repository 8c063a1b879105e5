package replica

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"remspan/internal/domtree"
	"remspan/internal/dynamic"
	"remspan/internal/graph"
	"remspan/internal/mobility"
	"remspan/internal/reference"
	"remspan/internal/routing"
	"remspan/internal/testutil"
)

// fixture is a live mobile network feeding a writer-side store: the
// same waypoint-fleet churn source the distsim live runs use.
type fixture struct {
	w       *mobility.Waypoint
	tr      *mobility.Tracker
	st      *routing.Store
	changes []dynamic.Change
}

func buildTree(c graph.View, s *domtree.Scratch, u int) *graph.Tree {
	return domtree.KGreedyCSR(c, s, u, 1)
}

func newFixture(n int, degree float64, seed int64) *fixture {
	return newFixtureSpeed(n, degree, 0.02, 0.08, seed)
}

// newFixtureSpeed controls the fleet speed: slow fleets give small
// churn batches (small dirty balls → genuinely incremental deltas),
// fast fleets stress the protocol with big batches.
func newFixtureSpeed(n int, degree, minSpeed, maxSpeed float64, seed int64) *fixture {
	side := math.Sqrt(math.Pi * float64(n) / degree)
	rng := rand.New(rand.NewSource(seed))
	w := mobility.NewWaypoint(n, side, minSpeed, maxSpeed, rng)
	tr := mobility.NewTracker(w, 1.0)
	m := dynamic.New(tr.Graph(), 1, dynamic.TreeBuilder(buildTree))
	return &fixture{w: w, tr: tr, st: routing.NewStore(m)}
}

// tick advances the fleet one step and returns the churn batch (valid
// until the next tick).
func (f *fixture) tick() []dynamic.Change {
	added, removed := f.tr.Tick()
	f.changes = f.changes[:0]
	for _, p := range removed {
		f.changes = append(f.changes, dynamic.Change{Kind: dynamic.RemoveEdge, U: int(p[0]), V: int(p[1])})
	}
	for _, p := range added {
		f.changes = append(f.changes, dynamic.Change{Kind: dynamic.AddEdge, U: int(p[0]), V: int(p[1])})
	}
	return f.changes
}

// checkTyped asserts the outcome is one of the typed answers the tier
// guarantees — never a zero Route.
func checkTyped(t *testing.T, o Outcome) {
	t.Helper()
	if o.OK {
		if o.Reason != routing.RouteDelivered && o.Reason != routing.RouteDegraded {
			t.Fatalf("delivered outcome with reason %v", o.Reason)
		}
		if len(o.Path) == 0 {
			t.Fatal("delivered outcome with empty path (zero Route)")
		}
		return
	}
	switch o.Reason {
	case routing.RouteUnreachable, routing.RouteStaleLink, routing.RouteTrapped:
	default:
		t.Fatalf("failed outcome with reason %v (untyped)", o.Reason)
	}
}

// TestClusterLockstepNoFaults pins the replication protocol on a
// perfect network: after every tick each replica has applied exactly
// the writer's epoch and the H it derives from its shipped trees is
// the writer's spanner; at the end its tables are bit-identical to the
// writer's and its physical mirror matches the writer's graph. Delta
// traffic must be far below re-shipping full state every epoch.
func TestClusterLockstepNoFaults(t *testing.T) {
	fix := newFixtureSpeed(400, 8, 0.003, 0.01, 21)
	c := NewCluster(fix.st, 4, FaultPlan{Seed: 1})
	for _, r := range c.Replicas {
		if r.AppliedSeq() != c.W.Seq() {
			t.Fatalf("replica %d not bootstrapped: seq %d vs writer %d", r.ID, r.AppliedSeq(), c.W.Seq())
		}
	}
	for tick := 0; tick < 30; tick++ {
		c.Tick(fix.tick())
		wantH := fix.st.Maintainer().Spanner().Graph()
		for _, r := range c.Replicas {
			if r.AppliedSeq() != c.W.Seq() {
				t.Fatalf("tick %d: replica %d at seq %d, writer at %d",
					tick, r.ID, r.AppliedSeq(), c.W.Seq())
			}
			r.mirrorMu.Lock()
			h := r.spanner()
			r.mirrorMu.Unlock()
			if !reference.Equal(h, wantH) {
				t.Fatalf("tick %d: replica %d derives an H that is not the writer's spanner", tick, r.ID)
			}
		}
	}
	want := fix.st.Epoch().Tables()
	for _, r := range c.Replicas {
		got := r.state.Load().tables
		for u := range want {
			if got[u].Owner != want[u].Owner {
				t.Fatalf("replica %d owner %d mismatch", r.ID, u)
			}
			for v := range want[u].Next {
				if got[u].Next[v] != want[u].Next[v] || got[u].Dist[v] != want[u].Dist[v] {
					t.Fatalf("replica %d row %d diverges at %d: next %d/%d dist %d/%d",
						r.ID, u, v, got[u].Next[v], want[u].Next[v], got[u].Dist[v], want[u].Dist[v])
				}
			}
		}
		if !reference.Equal(r.phys, fix.st.Maintainer().Graph()) {
			t.Fatalf("replica %d physical mirror diverged", r.ID)
		}
	}
	if c.W.DeltaShipments == 0 {
		t.Fatal("no delta shipments under live churn")
	}
	deltaAvg := c.W.DeltaWords / int64(c.W.DeltaShipments)
	fullAvg := c.W.FullWords / int64(c.W.FullShipments)
	if deltaAvg*2 > fullAvg {
		t.Fatalf("delta shipments not incremental: avg %d words vs full %d", deltaAvg, fullAvg)
	}
}

// TestWriterShipsFullStateAfterOutOfBandRebuild pins the writer
// against a store whose epoch moved outside Writer.ApplyBatch: a
// RebuildAll called on the store directly rewrites rows the writer
// never shipped, so the writer's next shipment must carry full state,
// not a delta. Replicas that report the writer's seq must then hold
// the writer's rows.
func TestWriterShipsFullStateAfterOutOfBandRebuild(t *testing.T) {
	fix := newFixture(120, 8, 7)
	c := NewCluster(fix.st, 2, FaultPlan{Seed: 7})
	for tick := 0; tick < 20; tick++ {
		c.Tick(fix.tick())
	}
	fix.st.RebuildAll()
	for tick := 0; tick < 2; tick++ {
		c.Tick(nil)
	}
	if lag := c.MaxLag(); lag != 0 {
		t.Fatalf("replicas lag the writer by %d epochs", lag)
	}
	want := fix.st.Epoch().Tables()
	for _, r := range c.Replicas {
		if r.AppliedSeq() != c.W.Seq() {
			t.Fatalf("replica %d at seq %d, writer at %d", r.ID, r.AppliedSeq(), c.W.Seq())
		}
		diff := 0
		for s := range want {
			for d := range want[s].Next {
				if r.NextHop(s, d) != want[s].Next[d] || r.Dist(s, d) != want[s].Dist[d] {
					diff++
				}
			}
		}
		if diff != 0 {
			t.Fatalf("replica %d reports seq %d but %d (s, t) entries differ from the writer's tables",
				r.ID, r.AppliedSeq(), diff)
		}
	}
}

// TestDegradedRouteAfterApply pins the degraded path to the newest
// trees: a degraded route taken right after a delta, and right after a
// full shipment, runs on the union of the trees that shipment brought,
// which is the writer's spanner at that epoch, and routes as greedy
// forwarding on the writer's graph and spanner does. Every checked
// apply changes H, so a replica that kept the H it derived for the
// previous degraded route fails.
func TestDegradedRouteAfterApply(t *testing.T) {
	const n = 150
	fix := newFixture(n, 8, 31)
	rn := &recordNet{}
	w := NewWriter(fix.st, rn, 1)
	w.Bootstrap()
	r := NewReplica(0, n)
	r.Apply(rn.got[0])
	scr := routing.NewRouteScratch(n)
	var prev *graph.EdgeSet
	check := func(what string) {
		t.Helper()
		m := fix.st.Maintainer()
		want := m.Spanner()
		if r.AppliedSeq() != w.Seq() {
			t.Fatalf("%s: replica at seq %d, writer at %d", what, r.AppliedSeq(), w.Seq())
		}
		if prev != nil && want.Equal(prev) {
			t.Fatalf("%s: the apply did not change the spanner", what)
		}
		prev = want
		for _, p := range [][2]int{{0, n - 1}, {n / 3, 2 * n / 3}, {7, n / 2}} {
			got := r.RouteDegraded(scr, p[0], p[1])
			if !reference.Equal(r.h, want.Graph()) {
				t.Fatalf("%s: degraded route %d→%d ran on an H that is not the writer's spanner", what, p[0], p[1])
			}
			ref := routing.GreedyRoute(m.Graph(), graph.NewCSR(want.Graph()), p[0], p[1])
			if got.OK != ref.OK || !slices.Equal(got.Path, ref.Path) {
				t.Fatalf("%s: degraded route %d→%d = %v (ok %v), greedy on the writer's state %v (ok %v)",
					what, p[0], p[1], got.Path, got.OK, ref.Path, ref.OK)
			}
		}
	}
	check("bootstrap")
	// changed ticks the writer until its spanner differs from prev,
	// returning the shipments of those ticks in order.
	changed := func() []*Shipment {
		rn.got = rn.got[:0]
		for tick := 0; tick < 50; tick++ {
			w.ApplyBatch(fix.tick())
			if !fix.st.Maintainer().Spanner().Equal(prev) {
				return rn.got
			}
		}
		t.Fatal("50 ticks left the spanner unchanged")
		return nil
	}
	for i := 0; i < 3; i++ {
		for _, sh := range changed() {
			r.Apply(sh)
		}
		check(fmt.Sprintf("delta %d", i))
	}
	for i := 0; i < 2; i++ {
		changed() // lost: the replica misses these deltas
		rn.got = rn.got[:0]
		w.Resync(0)
		r.Apply(rn.got[0])
		check(fmt.Sprintf("full shipment %d", i))
	}
}

// TestDegradedRouteConcurrentWithApply runs degraded routes on every
// replica from several goroutines while the cluster applies churn, so
// -race sees the derivation of H on the query side against the
// protocol thread swapping trees in and marking H stale. Every answer
// must be typed.
func TestDegradedRouteConcurrentWithApply(t *testing.T) {
	const n = 150
	fix := newFixture(n, 8, 32)
	c := NewCluster(fix.st, 2, FaultPlan{Seed: 16})
	done := make(chan struct{})
	var wg sync.WaitGroup
	var bad atomic.Int32
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			scr := routing.NewRouteScratch(n)
			rng := rand.New(rand.NewSource(int64(id)))
			for {
				select {
				case <-done:
					return
				default:
				}
				r := c.Replicas[rng.Intn(len(c.Replicas))]
				rt := r.RouteDegraded(scr, rng.Intn(n), rng.Intn(n))
				if rt.OK && (rt.Reason != routing.RouteDegraded || len(rt.Path) == 0) {
					bad.Store(1)
					return
				}
			}
		}(w)
	}
	for tick := 0; tick < 30; tick++ {
		c.Tick(fix.tick())
	}
	close(done)
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatal("a concurrent degraded route returned an untyped delivery")
	}
}

// recordNet captures shipments instead of delivering them, for
// hand-sequenced delivery tests.
type recordNet struct{ got []*Shipment }

func (rn *recordNet) Ship(dst int, sh *Shipment) {
	if dst == 0 {
		rn.got = append(rn.got, sh)
	}
}

// TestReplicaReorderAndDuplicates hand-delivers a shipment stream out
// of order and with duplicates: the replica must buffer past a gap,
// drain in sequence once it fills, and ignore duplicates — ending
// bit-identical to an in-order twin.
func TestReplicaReorderAndDuplicates(t *testing.T) {
	fix := newFixture(150, 8, 22)
	rn := &recordNet{}
	w := NewWriter(fix.st, rn, 1)
	w.Bootstrap()
	for tick := 0; tick < 12; tick++ {
		w.ApplyBatch(fix.tick())
	}
	if len(rn.got) < 6 {
		t.Fatalf("need more shipments for the scramble, got %d", len(rn.got))
	}
	full, deltas := rn.got[0], rn.got[1:]

	inOrder := NewReplica(0, 150)
	inOrder.Apply(full)
	for _, sh := range deltas {
		inOrder.Apply(sh)
	}

	scrambled := NewReplica(1, 150)
	scrambled.Apply(full)
	scrambled.Apply(deltas[1]) // gap: deltas[0] missing — must buffer
	if scrambled.AppliedSeq() != full.Seq {
		t.Fatalf("applied past a gap: seq %d", scrambled.AppliedSeq())
	}
	scrambled.Apply(deltas[2]) // still buffering
	scrambled.Apply(deltas[0]) // gap fills: drain 0,1,2
	if want := deltas[2].Seq; scrambled.AppliedSeq() != want {
		t.Fatalf("drain after gap fill: seq %d, want %d", scrambled.AppliedSeq(), want)
	}
	scrambled.Apply(deltas[1]) // duplicate: no-op
	scrambled.Apply(full)      // stale full re-install is harmless (idempotent state)
	for i := 3; i < len(deltas); i++ {
		scrambled.Apply(deltas[i])
	}

	a, b := inOrder.state.Load(), scrambled.state.Load()
	if a.seq != b.seq {
		t.Fatalf("twins diverge: seq %d vs %d", a.seq, b.seq)
	}
	for u := range a.tables {
		for v := range a.tables[u].Next {
			if a.tables[u].Next[v] != b.tables[u].Next[v] {
				t.Fatalf("twins diverge at row %d col %d", u, v)
			}
		}
	}
	if !reference.Equal(inOrder.phys, scrambled.phys) {
		t.Fatal("physical mirrors diverge after scramble")
	}
}

// TestReplicaGapResync pins the give-up path: a permanently lost delta
// leaves a gap no buffering can fill; after gapPatience ticks the
// replica asks for a full resync and a full shipment restores
// lockstep.
func TestReplicaGapResync(t *testing.T) {
	fix := newFixture(150, 8, 23)
	rn := &recordNet{}
	w := NewWriter(fix.st, rn, 1)
	w.Bootstrap()
	for tick := 0; tick < 8; tick++ {
		w.ApplyBatch(fix.tick())
	}
	full, deltas := rn.got[0], rn.got[1:]
	r := NewReplica(0, 150)
	r.Apply(full)
	// Lose deltas[0]; deliver the rest.
	for _, sh := range deltas[1:] {
		r.Apply(sh)
	}
	if r.AppliedSeq() != full.Seq {
		t.Fatalf("applied across a lost delta: %d", r.AppliedSeq())
	}
	want := 0
	for i := 0; ; i++ {
		if r.Tick() {
			want = i
			break
		}
		if i > 2*gapPatience+2 {
			t.Fatal("replica never requested resync across a permanent gap")
		}
	}
	if want < gapPatience {
		t.Fatalf("resync requested too eagerly (tick %d < patience %d): reordering would thrash", want, gapPatience)
	}
	// The writer answers with current full state.
	rn.got = rn.got[:0]
	w.Resync(0)
	r.Apply(rn.got[0])
	if r.AppliedSeq() != w.Seq() {
		t.Fatalf("resync did not restore lockstep: %d vs %d", r.AppliedSeq(), w.Seq())
	}
}

// TestCrashRestartRecovery pins crash recovery end to end on the
// cluster loop: a crashed replica wipes state and drops shipments; on
// restart it requests a full resync and is back in lockstep within a
// bounded number of ticks while churn continues.
func TestCrashRestartRecovery(t *testing.T) {
	fix := newFixture(200, 8, 24)
	c := NewCluster(fix.st, 4, FaultPlan{Seed: 2})
	victim := c.Replicas[2]
	for tick := 0; tick < 40; tick++ {
		switch tick {
		case 10:
			victim.Crash()
		case 20:
			victim.Restart()
		}
		c.Tick(fix.tick())
		if tick > 10 && tick < 20 {
			if victim.AppliedSeq() != 0 {
				t.Fatalf("tick %d: crashed replica holds state (seq %d)", tick, victim.AppliedSeq())
			}
		}
		// Recovery bound: restart at 20 requests resync in tick 20's
		// replica phase; the full shipment is due tick 21 and drains any
		// same-tick delta after it. Lockstep from tick 21 on.
		if tick >= 22 && victim.AppliedSeq() != c.W.Seq() {
			t.Fatalf("tick %d: restarted replica still behind (%d vs %d)",
				tick, victim.AppliedSeq(), c.W.Seq())
		}
	}
	if victim.Resyncs < 2 { // bootstrap + crash recovery
		t.Fatalf("expected a recovery resync, got %d", victim.Resyncs)
	}
	// Unaffected replicas never resynced past bootstrap.
	if c.Replicas[0].Resyncs != 1 {
		t.Fatalf("healthy replica resynced %d times", c.Replicas[0].Resyncs)
	}
}

// TestClientFreshNoFaults pins the happy path: on a healthy cluster
// every query is served fresh (lag 0), from the source's affinity
// replica, and agrees with the writer's own forwarding tables.
func TestClientFreshNoFaults(t *testing.T) {
	fix := newFixture(200, 8, 25)
	c := NewCluster(fix.st, 4, FaultPlan{Seed: 3})
	cl := NewClient(c, DefaultClientConfig(7))
	rng := rand.New(rand.NewSource(9))
	n := 200
	queries := 0
	for tick := 0; tick < 20; tick++ {
		c.Tick(fix.tick())
		cl.Tick()
		want := fix.st.Epoch().Tables()
		for q := 0; q < 40; q++ {
			s, d := rng.Intn(n), rng.Intn(n)
			o := cl.Route(s, d)
			queries++
			checkTyped(t, o)
			if o.Lag != 0 || o.Degraded || o.Hedged {
				t.Fatalf("healthy cluster served lag=%d degraded=%v hedged=%v", o.Lag, o.Degraded, o.Hedged)
			}
			if o.Replica != cl.affinity(s) {
				t.Fatalf("query for %d served by %d, want affinity %d", s, o.Replica, cl.affinity(s))
			}
			ref := routing.TableRoute(want, nil, s, d)
			if o.OK != ref.OK || o.Hops != ref.Hops || o.Reason != ref.Reason {
				t.Fatalf("replica answer diverges from writer: %+v vs %+v", o.Route, ref)
			}
		}
	}
	if got := cl.SLO.Served(); got != int64(queries) {
		t.Fatalf("SLO served %d, want %d", got, queries)
	}
	if cl.SLO.FreshFraction() != 1.0 || cl.SLO.Degraded != 0 || cl.SLO.Failed != 0 {
		t.Fatalf("SLO not all-fresh: %+v", cl.SLO)
	}
}

// TestClientFailoverAndBackoff pins failover economics: with a crashed
// primary, queries for its range fail over to the next replica and
// keep being served fresh, while exponential backoff keeps probes to
// the dead replica sublinear in query count.
func TestClientFailoverAndBackoff(t *testing.T) {
	fix := newFixture(200, 8, 26)
	c := NewCluster(fix.st, 4, FaultPlan{Seed: 4})
	cl := NewClient(c, DefaultClientConfig(8))
	const s = 10 // affinity replica 0 (10*4/200 = 0)
	dead := cl.affinity(s)
	c.Replicas[dead].Crash()
	queries := 0
	for tick := 0; tick < 120; tick++ {
		c.Tick(fix.tick())
		cl.Tick()
		o := cl.Route(s, (s+57)%200)
		queries++
		checkTyped(t, o)
		if o.Replica == dead {
			t.Fatalf("tick %d: served by the crashed replica", tick)
		}
		if o.Lag != 0 || o.Degraded {
			t.Fatalf("tick %d: failover served stale/degraded: %+v", tick, o)
		}
	}
	if cl.SLO.FreshFraction() != 1.0 {
		t.Fatalf("failover dented freshness: %+v", cl.SLO)
	}
	// Backoff: 120 queries over 120 ticks; with base 1 / cap 16 the
	// dead replica sees the exponential ramp (~5 probes) plus one probe
	// per ≥cap-sized window (≤ 120/16 + jitter slack).
	if cl.Probes[dead] > 25 {
		t.Fatalf("backoff not capping dead-replica probes: %d probes in %d queries",
			cl.Probes[dead], queries)
	}
	if cl.Probes[dead] < 2 {
		t.Fatalf("dead replica never reprobed: %d", cl.Probes[dead])
	}
}

// TestClientHedgesPastStalledReplica pins the per-query deadline path:
// a stalled (slow, not dead) replica is hedged past — queries still
// come back fresh from the next candidate and the hedge is counted.
func TestClientHedgesPastStalledReplica(t *testing.T) {
	fix := newFixture(200, 8, 27)
	c := NewCluster(fix.st, 4, FaultPlan{Seed: 5})
	cl := NewClient(c, DefaultClientConfig(9))
	const s = 150 // affinity 150*4/200 = 3
	slow := cl.affinity(s)
	c.Replicas[slow].SetStalled(true)
	c.Tick(fix.tick())
	cl.Tick()
	o := cl.Route(s, 3)
	checkTyped(t, o)
	if !o.Hedged || o.Replica == slow || o.Lag != 0 {
		t.Fatalf("expected fresh hedged answer from another replica: %+v", o)
	}
	if cl.SLO.Hedges == 0 {
		t.Fatal("hedge not counted")
	}
	// Without hedging the same stall is a typed failure path, not a
	// zero Route: the client breaks out and degrades or fails.
	cfg := DefaultClientConfig(10)
	cfg.Hedge = false
	cl2 := NewClient(c, cfg)
	o2 := cl2.Route(s, 3)
	checkTyped(t, o2)
	if o2.Replica == slow {
		t.Fatalf("hedge-less client served by the stalled replica: %+v", o2)
	}
}

// TestClientDegradedMode pins the last-resort path: when every replica
// lags past MaxLag (total partition under ongoing churn), queries are
// served by greedy fallback on a replica's local spanner view with the
// typed RouteDegraded reason; when every replica is crashed, queries
// fail typed. After healing, routing returns to 100% fresh within a
// bounded number of ticks.
func TestClientDegradedMode(t *testing.T) {
	fix := newFixture(200, 8, 28)
	c := NewCluster(fix.st, 4, FaultPlan{Seed: 6})
	cl := NewClient(c, DefaultClientConfig(11))
	for i := range c.Replicas {
		c.Inj.Partition(i, true)
	}
	// Churn until everyone lags past MaxLag.
	for tick := 0; tick < 12; tick++ {
		c.Tick(fix.tick())
		cl.Tick()
	}
	if c.MaxLag() <= cl.cfg.MaxLag {
		t.Fatalf("partition did not build lag: %d", c.MaxLag())
	}
	rng := rand.New(rand.NewSource(12))
	sawDelivered := false
	for q := 0; q < 60; q++ {
		o := cl.Route(rng.Intn(200), rng.Intn(200))
		checkTyped(t, o)
		if !o.Degraded {
			t.Fatalf("lagging cluster served non-degraded: %+v", o)
		}
		if o.OK {
			sawDelivered = true
			if o.Reason != routing.RouteDegraded {
				t.Fatalf("degraded delivery with reason %v", o.Reason)
			}
		}
	}
	if !sawDelivered {
		t.Fatal("degraded mode never delivered (spanner view should route most pairs)")
	}
	if cl.SLO.Degraded == 0 {
		t.Fatal("degraded queries not accounted")
	}

	// Crash everything: typed failure, never a zero Route.
	for _, r := range c.Replicas {
		r.Crash()
	}
	o := cl.Route(1, 2)
	checkTyped(t, o)
	if o.Replica != -1 || o.OK || o.Reason != routing.RouteUnreachable {
		t.Fatalf("dead cluster outcome: %+v", o)
	}
	if cl.SLO.Failed == 0 {
		t.Fatal("failed query not accounted")
	}

	// Heal: restart + heal partitions; replicas resync and the client
	// is back to fresh routing within bounded ticks.
	for i, r := range c.Replicas {
		r.Restart()
		c.Inj.Partition(i, false)
	}
	for tick := 0; tick < 3; tick++ { // restart-resync bound: request, deliver, drain
		c.Tick(fix.tick())
		cl.Tick()
	}
	if c.MaxLag() != 0 {
		t.Fatalf("replicas did not recover after heal: lag %d", c.MaxLag())
	}
	post := cl.SLO
	for q := 0; q < 40; q++ {
		o := cl.Route(rng.Intn(200), rng.Intn(200))
		checkTyped(t, o)
		if o.Lag != 0 || o.Degraded {
			t.Fatalf("post-heal query not fresh: %+v", o)
		}
	}
	if cl.SLO.Fresh-post.Fresh != 40 {
		t.Fatalf("post-heal queries not all fresh: %+v", cl.SLO)
	}
}

// TestClientSLOMatchesInjectedLag injects a known, exactly tracked
// epoch lag (one partitioned replica, MaxLag disabled) and pins the
// SLO accounting against the independently computed lag of every
// query.
func TestClientSLOMatchesInjectedLag(t *testing.T) {
	fix := newFixture(150, 8, 29)
	c := NewCluster(fix.st, 1, FaultPlan{Seed: 13})
	cfg := ClientConfig{MaxLag: 1 << 40, BackoffBase: 1, BackoffCap: 8, Seed: 14}
	cl := NewClient(c, cfg)
	c.Inj.Partition(0, true)
	frozen := c.Replicas[0].AppliedSeq()
	var wantSum int64
	var wantMax uint64
	var wantFresh int64
	for tick := 0; tick < 25; tick++ {
		c.Tick(fix.tick())
		cl.Tick()
		o := cl.Route(tick%150, (tick*7+3)%150)
		checkTyped(t, o)
		lag := c.W.Seq() - frozen
		if o.Lag != lag {
			t.Fatalf("tick %d: outcome lag %d, injected %d", tick, o.Lag, lag)
		}
		if lag == 0 {
			wantFresh++
		} else {
			wantSum += int64(lag)
			if lag > wantMax {
				wantMax = lag
			}
		}
	}
	if cl.SLO.LagSum != wantSum || cl.SLO.LagMax != wantMax || cl.SLO.Fresh != wantFresh {
		t.Fatalf("SLO accounting diverges from injected lag: sum %d/%d max %d/%d fresh %d/%d",
			cl.SLO.LagSum, wantSum, cl.SLO.LagMax, wantMax, cl.SLO.Fresh, wantFresh)
	}
	if wantSum == 0 {
		t.Fatal("scenario built no lag; nothing was pinned")
	}
}

// TestReplicaConcurrentQueries hammers the lock-free query surface
// from several goroutines while the protocol loop applies churn,
// crashes and recoveries — the -race pin for the replicated tier.
func TestReplicaConcurrentQueries(t *testing.T) {
	fix := newFixture(150, 8, 30)
	c := NewCluster(fix.st, 4, FaultPlan{Seed: 15, DropProb: 0.05, DelayProb: 0.3, DelayMax: 2})
	done := make(chan struct{})
	var wg sync.WaitGroup
	var bad atomic.Int32
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := newClient(c.Replicas, c.W.Seq, DefaultClientConfig(int64(100+id)))
			rng := rand.New(rand.NewSource(int64(id)))
			for {
				select {
				case <-done:
					return
				default:
				}
				o := cl.Route(rng.Intn(150), rng.Intn(150))
				if o.OK && len(o.Path) == 0 {
					bad.Store(1)
					return
				}
			}
		}(w)
	}
	for tick := 0; tick < 40; tick++ {
		switch tick {
		case 12:
			c.Replicas[1].Crash()
		case 20:
			c.Replicas[1].Restart()
		case 25:
			c.Replicas[3].SetStalled(true)
		case 32:
			c.Replicas[3].SetStalled(false)
		}
		c.Tick(fix.tick())
	}
	close(done)
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatal("concurrent query returned a zero Route")
	}
}

// TestReplicaQueryZeroAlloc pins the lock-free query side: once a
// replica serves an applied epoch and the caller's path buffer is
// warm, NextHop, Dist and Route allocate nothing. The apply side
// allocates by design (each shipment installs a fresh immutable
// repState — RCU); the zero-alloc contract lives entirely on the
// query path, which remspanlint's hotalloc analyzer guards statically.
func TestReplicaQueryZeroAlloc(t *testing.T) {
	fix := newFixture(120, 8, 44)
	c := NewCluster(fix.st, 2, FaultPlan{Seed: 9})
	for tick := 0; tick < 5; tick++ {
		c.Tick(fix.tick())
	}
	r := c.Replicas[0]
	if r.AppliedSeq() == 0 {
		t.Fatal("replica never applied a shipment")
	}
	rt, _ := r.Route(0, 119, make([]int32, 0, 256)) // warm the buffer
	path := rt.Path
	testutil.PinAllocs(t, "replica query path", 50, func() {
		_ = r.NextHop(3, 90)
		_ = r.Dist(7, 64)
		rt, _ := r.Route(0, 119, path[:0])
		if rt.OK {
			path = rt.Path
		}
	})
}
