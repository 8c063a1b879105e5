package replica

import (
	"math/rand"
	"testing"

	"remspan/internal/graph"
	"remspan/internal/routing"
)

// The fault controls the chaos scripts and the recovery tests drive:
// production code never crashes, stalls or partitions a replica, it
// only observes Down and Stalled and routes around them.

// Crash takes the replica down, wiping all replicated state (process
// restart loses the memory-resident tables). In-flight shipments
// addressed to it are dropped on arrival.
func (r *Replica) Crash() {
	r.down.Store(true)
	r.applied = 0
	r.gapAge = 0
	r.wantFS = false
	clear(r.pending)
	r.state.Store(&repState{})
	r.mirrorMu.Lock()
	r.phys = graph.New(r.n)
	clear(r.trees)
	r.h = nil
	r.mirrorMu.Unlock()
}

// Restart brings a crashed replica back empty; it immediately wants a
// full resync.
func (r *Replica) Restart() {
	r.down.Store(false)
	r.wantFS = true
}

// SetStalled marks the replica's read path as fault-injected slow (or
// heals it). Queries still succeed; clients treat a stalled replica
// as missing its per-query deadline and hedge elsewhere.
func (r *Replica) SetStalled(v bool) { r.stall.Store(v) }

// Partition cuts (or heals) the writer→dst link. Shipments sent while
// cut are lost, not queued — the replica recovers by resync after the
// heal, exactly like a real link coming back.
func (in *Injector) Partition(dst int, cut bool) { in.cut[dst] = cut }

// Heal zeroes the plan's background drop and delay probabilities
// (scripted partitions heal via Partition). Deterministic like every
// other injector mutation: the same plan healed at the same tick
// replays bit-identically.
func (in *Injector) Heal() {
	in.plan.DropProb = 0
	in.plan.DelayProb = 0
}

// chaosEvent mutates the cluster at a given tick (crash, restart,
// partition, stall — the scenario script).
type chaosEvent struct {
	tick  int
	apply func(c *Cluster)
}

// chaosScenario is one seeded fault storyline: background shipment
// faults from the plan, scripted lifecycle events, and a heal tick
// after which everything is restored and convergence is asserted.
type chaosScenario struct {
	name     string
	seed     int64 // fleet + query seed
	plan     FaultPlan
	events   []chaosEvent
	healTick int // background faults stop here (scripted heals are events)
	ticks    int
}

func chaosScenarios() []chaosScenario {
	return []chaosScenario{
		{
			name: "drop10",
			seed: 41, plan: FaultPlan{Seed: 141, DropProb: 0.10},
			healTick: 30, ticks: 45,
		},
		{
			name: "delay-reorder",
			seed: 42, plan: FaultPlan{Seed: 142, DelayProb: 0.6, DelayMax: 3},
			healTick: 30, ticks: 45,
		},
		{
			name: "crash-restart",
			seed: 43, plan: FaultPlan{Seed: 143},
			events: []chaosEvent{
				{8, func(c *Cluster) { c.Replicas[1].Crash() }},
				{14, func(c *Cluster) { c.Replicas[3].Crash() }},
				{18, func(c *Cluster) { c.Replicas[1].Restart() }},
				{24, func(c *Cluster) { c.Replicas[3].Restart() }},
			},
			healTick: 25, ticks: 40,
		},
		{
			name: "partition",
			seed: 44, plan: FaultPlan{Seed: 144},
			events: []chaosEvent{
				{6, func(c *Cluster) { c.Inj.Partition(0, true) }},
				{10, func(c *Cluster) { c.Inj.Partition(2, true) }},
				{22, func(c *Cluster) { c.Inj.Partition(0, false) }},
				{24, func(c *Cluster) { c.Inj.Partition(2, false) }},
			},
			healTick: 25, ticks: 42,
		},
		{
			name: "stall-hedge",
			seed: 45, plan: FaultPlan{Seed: 145},
			events: []chaosEvent{
				{5, func(c *Cluster) { c.Replicas[0].SetStalled(true) }},
				{9, func(c *Cluster) { c.Replicas[2].SetStalled(true) }},
				{20, func(c *Cluster) { c.Replicas[0].SetStalled(false) }},
				{22, func(c *Cluster) { c.Replicas[2].SetStalled(false) }},
			},
			healTick: 23, ticks: 38,
		},
		{
			name: "kitchen-sink",
			seed: 46, plan: FaultPlan{Seed: 146, DropProb: 0.05, DelayProb: 0.3, DelayMax: 2},
			events: []chaosEvent{
				{7, func(c *Cluster) { c.Replicas[2].Crash() }},
				{11, func(c *Cluster) { c.Inj.Partition(1, true) }},
				{13, func(c *Cluster) { c.Replicas[0].SetStalled(true) }},
				{17, func(c *Cluster) { c.Replicas[2].Restart() }},
				{21, func(c *Cluster) { c.Inj.Partition(1, false) }},
				{23, func(c *Cluster) { c.Replicas[0].SetStalled(false) }},
			},
			healTick: 24, ticks: 48,
		},
	}
}

// chaosResult is everything a scenario run produces that determinism
// and convergence are asserted on.
type chaosResult struct {
	writerSeq uint64
	repSeqs   [4]uint64
	slo       SLOStats
	shipped   int
	dropped   int
	delivered int
	outcomes  int
	delivOK   int
}

// runChaos executes one scenario once and asserts the always-on
// invariants: every query typed, recovery to lag 0 and 100% fresh
// routing within the bounded window after heal.
func runChaos(t *testing.T, sc chaosScenario) chaosResult {
	t.Helper()
	fix := newFixture(200, 8, sc.seed)
	c := NewCluster(fix.st, 4, sc.plan)
	cl := NewClient(c, DefaultClientConfig(sc.seed+1000))
	qrng := rand.New(rand.NewSource(sc.seed + 2000))
	var res chaosResult
	// Recovery bound after all faults stop: a gapped replica requests a
	// resync within gapPatience+1 ticks of its next delta, the answer
	// lands a tick later, plus one tick of slack for delayed stragglers.
	recoverBy := sc.healTick + gapPatience + 3
	for tick := 0; tick < sc.ticks; tick++ {
		for _, ev := range sc.events {
			if ev.tick == tick {
				ev.apply(c)
			}
		}
		if tick == sc.healTick {
			// Background shipment faults stop: partitions and stalls are
			// healed by their scripted events; drop/delay stop here.
			c.Inj.Heal()
		}
		c.Tick(fix.tick())
		cl.Tick()
		for q := 0; q < 15; q++ {
			o := cl.Route(qrng.Intn(200), qrng.Intn(200))
			res.outcomes++
			checkTyped(t, o)
			if o.OK {
				res.delivOK++
			}
			if tick > recoverBy {
				if o.Lag != 0 || o.Degraded {
					t.Fatalf("[%s] tick %d (past recovery bound %d): lag=%d degraded=%v",
						sc.name, tick, recoverBy, o.Lag, o.Degraded)
				}
			}
		}
		if tick > recoverBy && c.MaxLag() != 0 {
			t.Fatalf("[%s] tick %d: replicas not converged after heal (lag %d)",
				sc.name, tick, c.MaxLag())
		}
	}
	if res.delivOK == 0 {
		t.Fatalf("[%s] no query ever delivered", sc.name)
	}
	res.writerSeq = c.W.Seq()
	for i, r := range c.Replicas {
		res.repSeqs[i] = r.AppliedSeq()
	}
	res.slo = cl.SLO
	res.shipped = c.Inj.Shipped
	res.dropped = c.Inj.Dropped + c.Inj.Cut
	res.delivered = c.Inj.Delivered
	return res
}

// TestChaosScenarios drives every seeded fault storyline twice and
// pins (a) the per-run invariants — typed outcomes throughout, bounded
// recovery to fresh routing after heal — and (b) bit-identical
// determinism: same seeds, same change stream, same faults → the same
// shipments, drops, SLO counters and final epochs.
func TestChaosScenarios(t *testing.T) {
	for _, sc := range chaosScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			a := runChaos(t, sc)
			b := runChaos(t, sc)
			if a != b {
				t.Fatalf("scenario not deterministic:\n first: %+v\nsecond: %+v", a, b)
			}
			switch sc.name {
			case "drop10":
				if a.dropped == 0 {
					t.Fatal("drop scenario dropped nothing")
				}
			case "delay-reorder":
				if c := a.slo; c.Served() == 0 {
					t.Fatal("no served queries under reordering")
				}
			case "stall-hedge":
				if a.slo.Hedges == 0 {
					t.Fatal("stall scenario never hedged")
				}
			case "kitchen-sink":
				if a.slo.Backoffs == 0 {
					t.Fatal("kitchen sink never backed off")
				}
			}
		})
	}
}

// TestChaosQuick is the CI smoke entry: one seeded scenario, small and
// fast, exercising drop+delay+crash+partition in one run. The full
// table runs in the regular test job; this one is what the chaos smoke
// job invokes with -run.
func TestChaosQuick(t *testing.T) {
	sc := chaosScenario{
		name: "quick",
		seed: 47, plan: FaultPlan{Seed: 147, DropProb: 0.08, DelayProb: 0.25, DelayMax: 2},
		events: []chaosEvent{
			{5, func(c *Cluster) { c.Replicas[1].Crash() }},
			{9, func(c *Cluster) { c.Inj.Partition(3, true) }},
			{12, func(c *Cluster) { c.Replicas[1].Restart() }},
			{15, func(c *Cluster) { c.Inj.Partition(3, false) }},
		},
		healTick: 16, ticks: 30,
	}
	res := runChaos(t, sc)
	if res.outcomes == 0 || res.dropped == 0 {
		t.Fatalf("quick chaos exercised nothing: %+v", res)
	}
}

// TestChaosStaleReasonSurface double-checks the one reason the table
// walk can only produce against a physical view: replica tables are
// walked unvalidated (nil view), so RouteStaleLink must never leak
// from the replica tier — staleness there is expressed as Lag /
// Degraded, not as a stale-link verdict.
func TestChaosStaleReasonSurface(t *testing.T) {
	fix := newFixture(150, 8, 48)
	c := NewCluster(fix.st, 2, FaultPlan{Seed: 148, DropProb: 0.2})
	cl := NewClient(c, DefaultClientConfig(49))
	rng := rand.New(rand.NewSource(50))
	for tick := 0; tick < 25; tick++ {
		c.Tick(fix.tick())
		cl.Tick()
		for q := 0; q < 10; q++ {
			o := cl.Route(rng.Intn(150), rng.Intn(150))
			checkTyped(t, o)
			if o.Reason == routing.RouteStaleLink {
				t.Fatalf("replica tier surfaced RouteStaleLink: %+v", o)
			}
		}
	}
}
