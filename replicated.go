package remspan

import (
	"fmt"

	"remspan/internal/dynamic"
	"remspan/internal/replica"
	"remspan/internal/routing"
)

// ReplicatedRouter is the fault-tolerant replicated forwarding tier
// (DESIGN.md §3f): a single writer maintains the (1,0)-remote-spanner
// and its forwarding tables under churn, shipping each published epoch
// as an immutable dirty-owner diff to N read replicas; a failover
// client spreads queries over the replicas by vertex-range affinity
// and answers every query with a typed result — table-routed when a
// sufficiently fresh replica exists, greedy-degraded otherwise, never
// a silent zero. This public surface runs a perfect in-process
// transport; the seeded fault-injection harness behind it lives in the
// internal chaos tests (internal/replica).
type ReplicatedRouter struct {
	n  int // vertex count, fixed for the tier's lifetime
	c  *replica.Cluster
	cl *replica.Client
}

// NewReplicatedRouter builds the tier over g with the given replica
// count: the writer's store is constructed (full spanner + table
// build), every replica is bootstrapped with a full shipment, and the
// failover client is wired to the writer's epoch as its freshness
// reference. Like BuildForwardingTables, it returns an error, before
// building anything, for a graph past 65,535 vertices.
func NewReplicatedRouter(g *Graph, replicas int) (*ReplicatedRouter, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("remspan: need at least one replica, got %d", replicas)
	}
	if err := checkTableSize(g); err != nil {
		return nil, err
	}
	bb := dynamic.Builders()[0] // kgreedy k=1: the exact (1,0) spanner
	st := routing.NewStore(dynamic.New(g.raw(), bb.Radius, bb.Build))
	c := replica.NewCluster(st, replicas, replica.FaultPlan{})
	return &ReplicatedRouter{n: g.N(), c: c, cl: replica.NewClient(c, replica.DefaultClientConfig(1))}, nil
}

// Update applies one churn batch — edges appearing and disappearing —
// to the writer and ships the resulting epoch diff to every replica.
// It returns the number of changes that had an effect. The whole batch
// is checked first: an edge with an endpoint outside [0, n) is an
// error, and then nothing is applied.
func (rr *ReplicatedRouter) Update(added, removed [][2]int) (applied int, err error) {
	for _, batch := range [][][2]int{added, removed} {
		for _, e := range batch {
			if e[0] < 0 || e[0] >= rr.n || e[1] < 0 || e[1] >= rr.n {
				return 0, fmt.Errorf("remspan: edge (%d, %d) outside [0, %d)", e[0], e[1], rr.n)
			}
		}
	}
	changes := make([]dynamic.Change, 0, len(added)+len(removed))
	for _, e := range removed {
		changes = append(changes, dynamic.Change{Kind: dynamic.RemoveEdge, U: e[0], V: e[1]})
	}
	for _, e := range added {
		changes = append(changes, dynamic.Change{Kind: dynamic.AddEdge, U: e[0], V: e[1]})
	}
	applied = rr.c.Tick(changes)
	rr.cl.Tick()
	return applied, nil
}

// Route serves one s→t query through the failover client. reason is
// "delivered" for a fresh table route, "degraded" for a greedy
// fallback on a replica's local spanner view, else "unreachable",
// "stale-link" or "trapped". lag is how many epochs behind the writer
// the serving replica was.
func (rr *ReplicatedRouter) Route(s, t int) (path []int, reason string, lag uint64, ok bool) {
	checkVertices(rr.n, s, t)
	o := rr.cl.Route(s, t)
	if !o.OK {
		return nil, o.Reason.String(), o.Lag, false
	}
	out := make([]int, len(o.Path))
	for i, v := range o.Path {
		out[i] = int(v)
	}
	return out, o.Reason.String(), o.Lag, true
}

// Epoch returns the writer's current published epoch sequence.
func (rr *ReplicatedRouter) Epoch() uint64 { return rr.c.W.Seq() }

// MaxLag returns the largest epoch lag any replica currently has
// behind the writer (0 on the perfect transport once shipments land).
func (rr *ReplicatedRouter) MaxLag() uint64 { return rr.c.MaxLag() }
