package replica

import (
	"remspan/internal/dynamic"
	"remspan/internal/routing"
)

// Network is the writer→replica shipment channel. Implementations own
// delivery timing: the deterministic fault injector (faultinject.go)
// drops, delays and partitions; a zero-fault plan is the perfect
// network.
type Network interface {
	// Ship enqueues sh for replica dst at the current transport time.
	Ship(dst int, sh *Shipment)
}

// Cluster wires one writer, its replicas and the fault-injecting
// transport into a tick-driven protocol loop. The loop itself is
// single-threaded and fully deterministic under a fixed seed and
// change stream; only the replicas' query surface is concurrent.
type Cluster struct {
	W        *Writer
	Replicas []*Replica
	Inj      *Injector
}

// NewCluster builds nrep empty replicas over st, bootstraps them with
// a full shipment through the fault plan, and delivers the first tick
// (so with a clean plan every replica starts in lockstep at the
// store's current epoch).
func NewCluster(st *routing.Store, nrep int, plan FaultPlan) *Cluster {
	n := st.Maintainer().View().N()
	reps := make([]*Replica, nrep)
	for i := range reps {
		reps[i] = NewReplica(i, n)
	}
	inj := NewInjector(reps, plan)
	w := NewWriter(st, inj, nrep)
	c := &Cluster{W: w, Replicas: reps, Inj: inj}
	w.Bootstrap()
	inj.Tick()
	return c
}

// Tick runs one protocol round: the writer applies the churn batch and
// ships the published diff, the transport advances one tick and
// delivers everything due, and each replica's protocol clock runs —
// any resync request is answered immediately (the answer rides the
// same faulty transport, due next tick at the earliest). It returns
// the number of changes that had an effect at the writer.
func (c *Cluster) Tick(changes []dynamic.Change) int {
	applied := c.W.ApplyBatch(changes)
	c.Inj.Tick()
	for _, r := range c.Replicas {
		if r.Tick() {
			c.W.Resync(r.ID)
		}
	}
	return applied
}

// MaxLag returns the largest epoch lag any live replica currently has
// behind the writer (crashed replicas excluded; an empty live replica
// counts with the writer's full seq as its lag).
func (c *Cluster) MaxLag() uint64 {
	seq := c.W.Seq()
	var max uint64
	for _, r := range c.Replicas {
		if r.Down() {
			continue
		}
		if lag := seq - r.AppliedSeq(); lag > max {
			max = lag
		}
	}
	return max
}
