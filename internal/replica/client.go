package replica

import (
	"math/bits"
	"math/rand"

	"remspan/internal/routing"
)

// ClientConfig tunes the failover client.
type ClientConfig struct {
	// MaxLag is the freshness threshold: a replica more than MaxLag
	// epochs behind the writer is lagging and skipped for table
	// routing (it remains a degraded-mode candidate).
	MaxLag uint64
	// BackoffBase and BackoffCap bound the capped exponential backoff
	// (in protocol ticks) applied to replicas that fail probes: after
	// f consecutive failures the replica is skipped for
	// min(Cap, Base·2^(f−1)) + jitter(0..Base) ticks.
	BackoffBase, BackoffCap int
	// Hedge re-issues a query to the next candidate when a replica
	// misses its per-query deadline (modeled by Replica.Stalled)
	// instead of failing the query.
	Hedge bool
	// Seed drives the backoff jitter (deterministic per client).
	Seed int64
}

// DefaultClientConfig is the tuning the chaos scenarios and benches
// run with.
func DefaultClientConfig(seed int64) ClientConfig {
	return ClientConfig{MaxLag: 2, BackoffBase: 1, BackoffCap: 16, Hedge: true, Seed: seed}
}

// Outcome is one query's typed result: the routing answer plus where
// and how fresh it was served. Every query gets one — a dead cluster
// still returns a typed RouteUnreachable, never a zero Route.
type Outcome struct {
	routing.Route
	Replica  int    // serving replica id (-1: no live replica at all)
	Lag      uint64 // served epoch's lag behind the writer
	Degraded bool   // served by greedy fallback (Reason RouteDegraded on delivery)
	Hedged   bool   // at least one candidate missed its deadline first
}

// SLOStats is the client's stale-read accounting: how fresh the epochs
// actually serving traffic were, bucketed by lag bit-length, plus the
// failure-handling counters.
type SLOStats struct {
	Fresh    int64     // served at lag 0
	LagHist  [17]int64 // LagHist[bits.Len64(lag)] for lag > 0 (bucket 16 collects the rest)
	LagSum   int64
	LagMax   uint64
	Degraded int64 // served by greedy fallback
	Failed   int64 // no live replica: typed RouteUnreachable
	Hedges   int64 // per-query deadline misses hedged past
	Backoffs int64 // probe failures that started/extended a backoff
}

func (s *SLOStats) record(lag uint64) {
	if lag == 0 {
		s.Fresh++
		return
	}
	b := bits.Len64(lag)
	if b > 16 {
		b = 16
	}
	s.LagHist[b]++
	s.LagSum += int64(lag)
	if lag > s.LagMax {
		s.LagMax = lag
	}
}

// Served returns the number of table-served queries (fresh + stale,
// excluding degraded and failed).
func (s *SLOStats) Served() int64 {
	n := s.Fresh
	for _, c := range s.LagHist {
		n += c
	}
	return n
}

// FreshFraction returns the fraction of table-served queries answered
// at lag 0 (1.0 when nothing was served).
func (s *SLOStats) FreshFraction() float64 {
	served := s.Served()
	if served == 0 {
		return 1.0
	}
	return float64(s.Fresh) / float64(served)
}

// Client is the failover query router: it spreads sources over
// replicas by contiguous vertex-range affinity, walks the candidates
// in rotation order preferring fresh epochs, backs off failed replicas
// exponentially (capped, jittered), hedges past deadline misses, and
// degrades to greedy fallback — typed RouteDegraded — when no replica
// is fresh enough, so the caller always gets a typed answer. Not safe
// for concurrent use: concurrent load runs one Client per goroutine
// over the same replicas (the replicas' query surface is lock-free)
// and merges the SLOStats afterwards.
type Client struct {
	cfg   ClientConfig
	reps  []*Replica
	seqOf func() uint64 // the writer's current epoch (freshness reference)
	nvert int

	rng   *rand.Rand
	clock int64
	fails []int
	until []int64

	scr  *routing.RouteScratch
	path []int32

	// Probes[i] counts queries that touched replica i (including
	// failed probes); tests assert backoff keeps dead-replica probes
	// sublinear in query count.
	Probes []int64
	SLO    SLOStats
}

// NewClient returns a client over the cluster's replicas, using the
// writer's published epoch as the freshness reference.
func NewClient(c *Cluster, cfg ClientConfig) *Client {
	return newClient(c.Replicas, c.W.Seq, cfg)
}

func newClient(reps []*Replica, seqOf func() uint64, cfg ClientConfig) *Client {
	if cfg.BackoffBase < 1 {
		cfg.BackoffBase = 1
	}
	if cfg.BackoffCap < cfg.BackoffBase {
		cfg.BackoffCap = cfg.BackoffBase
	}
	return &Client{
		cfg:    cfg,
		reps:   reps,
		seqOf:  seqOf,
		nvert:  reps[0].n,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		fails:  make([]int, len(reps)),
		until:  make([]int64, len(reps)),
		scr:    routing.NewRouteScratch(reps[0].n),
		path:   make([]int32, 0, 16),
		Probes: make([]int64, len(reps)),
	}
}

// Tick advances the client's logical clock (call once per protocol
// tick; backoff windows are measured in these).
func (c *Client) Tick() { c.clock++ }

// affinity returns source s's primary replica: contiguous vertex
// ranges, one per replica, so load spreads and failover order is
// deterministic (primary, then the next ranges in rotation).
func (c *Client) affinity(s int) int {
	return s * len(c.reps) / c.nvert
}

// fail records a probe failure against replica id and extends its
// backoff window: min(Cap, Base·2^(f−1)) + jitter(0..Base) ticks.
func (c *Client) fail(id int) {
	c.fails[id]++
	back := c.cfg.BackoffCap
	if f := c.fails[id] - 1; f < 30 {
		if b := c.cfg.BackoffBase << f; b < back {
			back = b
		}
	}
	c.until[id] = c.clock + int64(back) + int64(c.rng.Intn(c.cfg.BackoffBase+1))
	c.SLO.Backoffs++
}

// Route serves one s→t query through the failover policy. The
// Outcome's Path (when delivered) is client-owned, valid until the
// next call.
func (c *Client) Route(s, t int) Outcome {
	fresh := c.seqOf()
	n := len(c.reps)
	first := c.affinity(s)
	hedged := false
	bestLag, bestRep := uint64(0), -1 // least-stale live fallback candidate
	for k := 0; k < n; k++ {
		id := (first + k) % n
		if c.clock < c.until[id] {
			continue // backing off: don't even probe
		}
		r := c.reps[id]
		c.Probes[id]++
		if r.Down() {
			c.fail(id)
			continue
		}
		if r.Stalled() {
			// Per-query deadline miss: back the replica off and — under
			// hedging — re-issue to the next candidate.
			c.fail(id)
			if !c.cfg.Hedge {
				break
			}
			hedged = true
			c.SLO.Hedges++
			continue
		}
		seq := r.AppliedSeq()
		if seq == 0 {
			continue // empty (just restarted): nothing to serve from
		}
		c.fails[id] = 0
		var lag uint64
		if seq < fresh { // a concurrent publish can briefly put seq ahead
			lag = fresh - seq
		}
		if lag > c.cfg.MaxLag {
			if bestRep < 0 || lag < bestLag {
				bestLag, bestRep = lag, id
			}
			continue // lagging: fresh-routing ineligible
		}
		rt, served := r.Route(s, t, c.path)
		if rt.Path != nil {
			c.path = rt.Path
		}
		lag = 0
		if served < fresh {
			lag = fresh - served
		}
		c.SLO.record(lag)
		return Outcome{Route: rt, Replica: id, Lag: lag, Hedged: hedged}
	}
	if bestRep >= 0 {
		// Every candidate is dead, backing off, or lagging: serve from
		// the least-stale live replica's own spanner view — degraded
		// but typed, never a silent wrong answer.
		rt := c.reps[bestRep].RouteDegraded(c.scr, s, t)
		c.SLO.Degraded++
		return Outcome{Route: rt, Replica: bestRep, Lag: bestLag, Degraded: true, Hedged: hedged}
	}
	c.SLO.Failed++
	return Outcome{
		Route:   routing.Route{Reason: routing.RouteUnreachable, At: int32(s)},
		Replica: -1, Hedged: hedged,
	}
}
