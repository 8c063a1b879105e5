package main

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"remspan/internal/dynamic"
	"remspan/internal/graph"
	"remspan/internal/mobility"
	"remspan/internal/replica"
	"remspan/internal/routing"
	"remspan/internal/spanner"
)

// fleet-churn: closed loop, one writer, fast mobility. Most owners are
// dirty every tick, so the routing table rebuild does almost all the
// work. n=1000 rather than 2000: ~450 ticks per run instead of ~100
// cut the run-to-run spread of the tick p90 from 16% to 10%.
func fleetChurnParams(smoke bool) params {
	p := params{N: 1000, Degree: 8, MinSpeed: 0.01, MaxSpeed: 0.05, Replicas: 4, Queries: 2048, Warm: 5, RoutePairs: 256}
	if smoke {
		p.N, p.Queries, p.Warm, p.RoutePairs = 200, 64, 1, 32
	}
	return p
}

// fleet-read: the same path with 20× slower mobility, an open-loop
// writer and one closed-loop query goroutine, so Client.Route
// dominates and writer changes show through the readers. A tick every
// 50 ms keeps the writer busy about a quarter of the time.
func fleetReadParams(smoke bool) params {
	p := params{N: 1000, Degree: 8, MinSpeed: 0.0005, MaxSpeed: 0.0025, Replicas: 4, TickEveryMS: 50, Warm: 3, RoutePairs: 256}
	if smoke {
		p.N, p.TickEveryMS, p.Warm, p.RoutePairs = 200, 20, 1, 32
	}
	return p
}

// fleet is the live replicated path: a mobility tracker feeding one
// writer (routing.Store under a replica.Writer) and its replicas over
// a fault-free injector.
type fleet struct {
	tr  *mobility.Tracker
	c   *replica.Cluster
	st  *routing.Store
	buf []dynamic.Change

	// Shadow copies for the traced run. Each batch is replayed on a bare
	// maintainer and on a store with its own maintainer after the tick
	// closes, which splits the writer's nested layers from outside.
	sm   *dynamic.Maintainer
	sst  *routing.Store
	prev []int32 // shadow rows of the dirty owners before the batch

	s fleetStats
}

// fleetStats are one CPU arm's tick counters.
type fleetStats struct {
	ticks       int
	diffs       int64
	busy        time.Duration
	words       int64 // writer delta words at arm start
	alloc       float64
	trees       int64
	dirty       int64
	rowsChanged int64
	late        time.Duration
	lat         []float64 // ms, from the due time
}

func newFleet(r *run, parent int) *fleet {
	p := r.p
	side := math.Sqrt(math.Pi * float64(p.N) / p.Degree)
	t0 := time.Now()
	w := mobility.NewWaypoint(p.N, side, p.MinSpeed, p.MaxSpeed, rand.New(rand.NewSource(r.seed)))
	tr := mobility.NewTracker(w, 1)
	t1 := time.Now()
	b := dynamic.Builders()[0] // kgreedy1: the exact (1, 0) construction
	m := dynamic.New(tr.Graph(), b.Radius, b.Build)
	t2 := time.Now()
	st := routing.NewStore(m)
	t3 := time.Now()
	c := replica.NewCluster(st, p.Replicas, replica.FaultPlan{Seed: r.seed})
	t4 := time.Now()
	r.tr.add("mobility.new_tracker", 0, t0, t1, parent, false)
	r.tr.add("dynamic.new", 0, t1, t2, parent, false)
	r.tr.add("routing.new_store", 0, t2, t3, parent, false)
	r.tr.add("replica.new_cluster", 0, t3, t4, parent, false)
	return &fleet{tr: tr, c: c, st: st, s: fleetStats{lat: make([]float64, 0, 1<<12)}}
}

// setupFleet builds the fleet, records its spanner size, and in the
// traced run builds the shadow copies from the same initial graph.
func setupFleet(r *run) *fleet {
	f, _ := setup(r, func(parent int) *fleet { return newFleet(r, parent) })
	r.e2e["spanner_edges"] = float64(f.st.Maintainer().Spanner().Len())
	if r.tr.on {
		g := f.tr.Graph()
		b := dynamic.Builders()[0]
		f.sm = dynamic.New(g, b.Radius, b.Build)
		f.sst = routing.NewStore(dynamic.New(g, b.Radius, b.Build))
	}
	return f
}

// diff turns the tracker's next tick into a change batch.
func diff(tr *mobility.Tracker, buf []dynamic.Change) []dynamic.Change {
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

func (f *fleet) resetStats() {
	f.s = fleetStats{lat: f.s.lat[:0], words: f.c.W.DeltaWords}
}

// tick runs one update from the topology diff until every replica has
// applied the new epoch, and returns when that happened. k < 0 marks a
// warm-up tick, which is replayed on the shadows but not recorded.
func (f *fleet) tick(r *run, k int, start time.Time) time.Time {
	f.buf = diff(f.tr, f.buf)
	t1 := time.Now()
	a0 := r.tr.allocMB()
	t2 := time.Now()
	f.c.W.ApplyBatch(f.buf)
	t3 := time.Now()
	a1 := r.tr.allocMB()
	t4 := time.Now()
	f.c.Inj.Tick()
	t5 := time.Now()
	for _, rep := range f.c.Replicas {
		if rep.Tick() {
			f.c.W.Resync(rep.ID)
		}
	}
	end := time.Now()
	r.check(f.c.MaxLag() == 0, "tick %d: a replica lags the writer", k)

	tick := -1
	if k >= 0 {
		f.s.ticks++
		f.s.diffs += int64(len(f.buf))
		f.s.busy += end.Sub(start)
		f.s.alloc += a1 - a0
		tick = r.tr.add("tick", k, start, end, -1, false)
		r.tr.add("mobility.tick", k, start, t1, tick, false)
		r.tr.add("replica.writer_apply", k, t2, t3, tick, false)
		r.tr.add("replica.deliver", k, t4, t5, tick, false)
		r.tr.add("replica.protocol", k, t5, end, tick, false)
	}
	if r.tr.on {
		f.replayShadow(r, k, tick)
	}
	return end
}

// replayShadow feeds the tick's batch to the shadow maintainer and the
// shadow store. Their outputs double as checks: the shadow dirty owners
// must equal the writer's.
func (f *fleet) replayShadow(r *run, k, tick int) {
	trees := f.sm.TreesRebuilt()
	s0 := time.Now()
	f.sm.ApplyBatch(f.buf)
	s1 := time.Now()
	dirty := f.sm.DirtyRoots()
	n := f.tr.N()
	tables := f.sst.Epoch().Tables()
	f.prev = f.prev[:0]
	for _, u := range dirty {
		f.prev = append(f.prev, tables[u].Next...)
		f.prev = append(f.prev, tables[u].Dist...)
	}
	s2 := time.Now()
	f.sst.ApplyBatch(f.buf)
	s3 := time.Now()
	owners := f.sst.DirtyOwners()
	ok := slices.Equal(owners, dirty) && slices.Equal(owners, f.st.DirtyOwners())
	r.check(ok, "tick %d: shadow dirty owners differ from the writer's", k)
	if k < 0 || !ok {
		return
	}
	tables = f.sst.Epoch().Tables()
	for i, u := range owners {
		row := f.prev[2*i*n : 2*(i+1)*n]
		if !slices.Equal(tables[u].Next, row[:n]) || !slices.Equal(tables[u].Dist, row[n:]) {
			f.s.rowsChanged++
		}
	}
	f.s.dirty += int64(len(owners))
	f.s.trees += f.sm.TreesRebuilt() - trees
	r.tr.add("dynamic.apply_batch", k, s0, s1, tick, true)
	r.tr.add("routing.store_apply", k, s2, s3, tick, true)
}

// reader is one closed-loop query client over the replicas.
type reader struct {
	cl      *replica.Client
	rng     *rand.Rand
	n       int
	seq     uint64
	queries int64
	hops    int64
	reached int64
	clientT time.Duration
	directN int64 // traced: one pair in 16 is routed on its replica directly
	directT time.Duration
	path    []int32
	traceOn bool
}

func newReader(f *fleet, seed int64, traceOn bool) *reader {
	return &reader{
		cl:      replica.NewClient(f.c, replica.DefaultClientConfig(seed)),
		rng:     rand.New(rand.NewSource(seed + 1)),
		n:       f.tr.N(),
		traceOn: traceOn,
	}
}

func (q *reader) reset() {
	q.queries, q.hops, q.reached, q.clientT, q.directN, q.directT = 0, 0, 0, 0, 0, 0
}

// query routes one random pair. The Client's logical clock advances
// whenever the writer has published a new epoch.
func (q *reader) query(c *replica.Cluster) {
	if s := c.W.Seq(); s != q.seq {
		q.seq = s
		q.cl.Tick()
	}
	s, t := q.rng.Intn(q.n), q.rng.Intn(q.n)
	if q.traceOn && q.rng.Intn(16) == 0 {
		// The replica the client's range affinity would pick first.
		rep := c.Replicas[s*len(c.Replicas)/q.n]
		t0 := time.Now()
		rt, _ := rep.Route(s, t, q.path)
		q.directT += time.Since(t0)
		q.directN++
		if rt.Path != nil {
			q.path = rt.Path
		}
		return
	}
	t0 := time.Now()
	o := q.cl.Route(s, t)
	q.clientT += time.Since(t0)
	q.queries++
	if o.OK {
		q.reached++
		q.hops += int64(o.Hops)
	}
}

// overhead is the share of Client.Route time spent outside the
// replica's own table walk (failover policy, freshness and SLO).
func (q *reader) overhead() float64 {
	if q.directN == 0 || q.queries == 0 {
		return 0
	}
	direct := float64(q.directT) / float64(q.directN)
	client := float64(q.clientT) / float64(q.queries)
	return 1 - direct/client
}

func runFleetChurn(r *run) {
	f := setupFleet(r)
	q := newReader(f, r.seed, r.tr.on)
	for i := 0; i < r.p.Warm; i++ {
		f.tick(r, -1, time.Now())
		for j := 0; j < r.p.Queries; j++ {
			q.query(f.c)
		}
	}
	ops := make(map[int]int)
	var measured time.Duration
	k := 0
	r.eachArm(func(cpu int) {
		if len(r.arms) > 1 {
			f.tick(r, -1, time.Now())
		}
		f.resetStats()
		q.reset()
		armStart := time.Now()
		for time.Since(armStart) < r.budget {
			start := time.Now()
			end := f.tick(r, k, start)
			f.s.lat = append(f.s.lat, ms(end.Sub(start)))
			for j := 0; j < r.p.Queries; j++ {
				q.query(f.c)
			}
			k++
		}
		measured += time.Since(armStart)
		ops[cpu] = f.s.ticks
	})
	r.heapLive()
	timeSetups(r, func(parent int) *fleet { return newFleet(r, parent) })
	r.count(q.queries, q.cl.SLO.Failed+q.cl.SLO.Degraded)

	f.metrics(r, q, ops, measured)
	f.finalChecks(r)
}

func runFleetRead(r *run) {
	f := setupFleet(r)
	q := newReader(f, r.seed, r.tr.on)
	for i := 0; i < r.p.Warm; i++ {
		f.tick(r, -1, time.Now())
	}
	every := time.Duration(r.p.TickEveryMS * float64(time.Millisecond))
	ops := make(map[int]int)
	var measured time.Duration
	k := 0
	r.eachArm(func(cpu int) {
		if len(r.arms) > 1 {
			f.tick(r, -1, time.Now())
		}
		f.resetStats()
		q.reset()
		// One query goroutine plus the writer on this goroutine: two
		// load goroutines, one per core on a 2-core host.
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				q.query(f.c)
			}
		}()
		armStart := time.Now()
		for i := 0; ; i++ {
			due := armStart.Add(time.Duration(i) * every)
			if due.Sub(armStart) >= r.budget {
				break
			}
			time.Sleep(time.Until(due))
			begin := time.Now()
			end := f.tick(r, k, begin)
			f.s.late += begin.Sub(due)
			f.s.lat = append(f.s.lat, ms(end.Sub(due)))
			k++
		}
		stop.Store(true)
		wg.Wait()
		measured += time.Since(armStart)
		ops[cpu] = f.s.ticks
	})
	r.heapLive()
	timeSetups(r, func(parent int) *fleet { return newFleet(r, parent) })
	r.count(q.queries, q.cl.SLO.Failed+q.cl.SLO.Degraded)

	r.layer["bench.tick_late_frac"] = share(f.s.late, every*time.Duration(f.s.ticks))
	f.metrics(r, q, ops, measured)
	f.finalChecks(r)
}

// metrics sets the fleet's end-to-end and per-layer metrics. A tick's
// latency runs from its due time (the start, in a closed loop), so
// fleet-read's generator lateness counts against it.
func (f *fleet) metrics(r *run, q *reader, ops map[int]int, measured time.Duration) {
	ticks := float64(f.s.ticks)
	r.e2e["update_p50_ms"] = quantile(f.s.lat, 0.5)
	r.e2e["update_p90_ms"] = quantile(f.s.lat, 0.9)
	r.e2e["updates_per_s"] = ticks / (f.s.busy + f.s.late).Seconds()
	r.e2e["words_per_update"] = ratio(float64(f.c.W.DeltaWords-f.s.words), float64(len(f.c.Replicas))*ticks)

	l := r.layer
	l["mobility.changes_per_tick"] = ratio(float64(f.s.diffs), ticks)
	l["dynamic.trees_rebuilt_per_tick"] = ratio(float64(f.s.trees), ticks)
	l["routing.dirty_owners_per_tick"] = ratio(float64(f.s.dirty), ticks)
	l["routing.rows_changed_frac"] = ratio(float64(f.s.rowsChanged), float64(f.s.dirty))
	l["routing.route_hops_mean"] = ratio(float64(q.hops), float64(q.reached))
	l["replica.writer_alloc_mb_per_tick"] = ratio(f.s.alloc, ticks)
	l["replica.resyncs"] = float64(f.c.W.FullShipments - len(f.c.Replicas))
	l["replica.fresh_read_frac"] = q.cl.SLO.FreshFraction()
	l["replica.client_overhead_frac"] = q.overhead()
	l["replica.queries_per_ms"] = ratio(float64(q.queries), 1000*q.clientT.Seconds())

	r.stageShare("mobility.tick_share", "tick", "mobility.tick")
	r.stageShare("dynamic.apply_batch_share", "tick", "dynamic.apply_batch")
	r.stageShare("routing.publish_share", "tick", "routing.store_apply", "-dynamic.apply_batch")
	r.stageShare("replica.writer_apply_share", "tick", "replica.writer_apply", "-routing.store_apply")
	r.stageShare("replica.deliver_share", "tick", "replica.deliver")
	r.stageShare("replica.protocol_share", "tick", "replica.protocol")
	r.setupShare("routing.new_store_setup_share", "routing.new_store")
	r.setupShare("replica.new_cluster_setup_share", "replica.new_cluster")
	r.speedup("mobility.speedup_2v1", ops, "mobility.tick")
	r.speedup("dynamic.speedup_2v1", ops, "dynamic.apply_batch")
	r.speedup("routing.speedup_2v1", ops, "routing.store_apply", "-dynamic.apply_batch")
	r.speedup("replica.speedup_2v1", ops, "replica.deliver", "replica.protocol")
	r.finishTrace("tick", measured)
}

// finalChecks verifies the fleet's end state: replicas in lockstep
// with the writer row for row, the maintained spanner exact, and —
// after a full rebuild shipped to every replica — sampled connected
// pairs routed in exactly d_G hops.
func (f *fleet) finalChecks(r *run) {
	r.check(f.c.MaxLag() == 0, "final: a replica lags the writer")
	n := f.tr.N()
	tables := f.st.Epoch().Tables()
	for _, rep := range f.c.Replicas {
		same := true
		for s := 0; s < n && same; s++ {
			for t := 0; t < n; t++ {
				if rep.NextHop(s, t) != tables[s].Next[t] || rep.Dist(s, t) != tables[s].Dist[t] {
					same = false
					break
				}
			}
		}
		r.check(same, "final: replica %d rows differ from the writer epoch", rep.ID)
	}
	m := f.st.Maintainer()
	g := m.Graph()
	v := spanner.Check(g, m.Spanner().Graph(), spanner.NewStretch(1, 0))
	r.check(v == nil, "final: maintained spanner is not a (1,0)-remote-spanner: %v", v)

	f.st.RebuildAll()
	for _, rep := range f.c.Replicas {
		f.c.W.Resync(rep.ID)
	}
	f.c.Inj.Tick()
	r.check(f.c.MaxLag() == 0, "final: replicas did not install the rebuilt epoch")
	cl := replica.NewClient(f.c, replica.DefaultClientConfig(r.seed+2))
	rng := rand.New(rand.NewSource(r.seed + 3))
	for pairs, tries := 0, 0; pairs < r.p.RoutePairs && tries < 100*r.p.RoutePairs; tries++ {
		s, t := rng.Intn(n), rng.Intn(n)
		d := graph.BFS(g, s)[t]
		if d == graph.Unreached {
			continue
		}
		pairs++
		o := cl.Route(s, t)
		r.check(o.OK && !o.Degraded && o.Hops == int(d), "final: route %d→%d took %d hops (ok=%v), d_G=%d", s, t, o.Hops, o.OK, d)
	}
}
