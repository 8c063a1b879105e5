package replica

import "math/rand"

// FaultPlan parameterizes the deterministic fault injector. The zero
// value is a perfect network: nothing dropped, nothing delayed. All
// randomness flows from Seed through one private rand.Rand, so a plan
// plus a change stream replays bit-identically — every chaos scenario
// is a regression test, not a flake.
type FaultPlan struct {
	Seed      int64
	DropProb  float64 // per (shipment, destination) silent loss
	DelayProb float64 // per (shipment, destination) delivery delay
	DelayMax  int     // delay of 1..DelayMax ticks (uniform); reorders across seqs
}

// inFlight is one shipment queued inside the transport.
type inFlight struct {
	due int
	dst int
	sh  *Shipment
}

// Injector is the fault-injecting transport between the writer and its
// replicas: shipments are dropped, delayed (and thereby reordered), or
// blocked by per-replica partitions, per the plan's seeded coin flips.
// Delivery is deterministic: due shipments arrive in ship order within
// a tick. Not safe for concurrent use — it lives on the cluster's
// single protocol thread.
type Injector struct {
	replicas []*Replica
	plan     FaultPlan
	rng      *rand.Rand
	now      int
	queue    []inFlight
	cut      []bool // partitioned[dst]: writer→dst shipments vanish

	// Fault accounting (tests assert against these).
	Shipped   int
	Dropped   int // coin-flip losses
	Cut       int // partition losses
	Delayed   int
	Delivered int
}

// NewInjector returns a transport over the given replicas with the
// given fault plan.
func NewInjector(replicas []*Replica, plan FaultPlan) *Injector {
	return &Injector{
		replicas: replicas,
		plan:     plan,
		rng:      rand.New(rand.NewSource(plan.Seed)),
		cut:      make([]bool, len(replicas)),
	}
}

// Ship enqueues sh for dst, subject to partition, drop and delay
// faults. Every shipment consumes the same number of coin flips
// whatever its fate, so toggling a partition does not shift the
// random sequence of unrelated shipments.
func (in *Injector) Ship(dst int, sh *Shipment) {
	in.Shipped++
	drop := in.plan.DropProb > 0 && in.rng.Float64() < in.plan.DropProb
	delay := 0
	if in.plan.DelayProb > 0 && in.rng.Float64() < in.plan.DelayProb && in.plan.DelayMax > 0 {
		delay = 1 + in.rng.Intn(in.plan.DelayMax)
	}
	if in.cut[dst] {
		in.Cut++
		return
	}
	if drop {
		in.Dropped++
		return
	}
	if delay > 0 {
		in.Delayed++
	}
	in.queue = append(in.queue, inFlight{due: in.now + delay, dst: dst, sh: sh})
}

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

// Tick advances transport time one tick and delivers every due
// shipment in ship order.
func (in *Injector) Tick() {
	in.now++
	kept := in.queue[:0]
	for _, f := range in.queue {
		if f.due <= in.now {
			in.Delivered++
			in.replicas[f.dst].Apply(f.sh)
		} else {
			kept = append(kept, f)
		}
	}
	for i := len(kept); i < len(in.queue); i++ {
		in.queue[i] = inFlight{}
	}
	in.queue = kept
}
