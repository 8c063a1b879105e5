package spanner

import (
	"fmt"
	"sync"
	"sync/atomic"

	"remspan/internal/flow"
	"remspan/internal/graph"
	"remspan/internal/sched"
)

// Stretch is an exact rational stretch bound (αN/αD, βN/βD).
type Stretch struct {
	AlphaNum, AlphaDen int64
	BetaNum, BetaDen   int64
}

// NewStretch returns the integer stretch (α, β).
func NewStretch(alpha, beta int64) Stretch {
	return Stretch{AlphaNum: alpha, AlphaDen: 1, BetaNum: beta, BetaDen: 1}
}

// LowStretchOf returns the exact stretch (1+ε', 1−2ε') with
// ε' = 1/(r−1) guaranteed by (r, 1)-dominating trees (Prop. 1).
func LowStretchOf(r int) Stretch {
	d := int64(r - 1)
	return Stretch{AlphaNum: d + 1, AlphaDen: d, BetaNum: d - 2, BetaDen: d}
}

// String renders the stretch, e.g. "(4/3, 1/3)".
func (s Stretch) String() string {
	frac := func(n, d int64) string {
		if n == 0 {
			return "0"
		}
		if d != 0 && n%d == 0 {
			return fmt.Sprintf("%d", n/d)
		}
		return fmt.Sprintf("%d/%d", n, d)
	}
	return fmt.Sprintf("(%s, %s)", frac(s.AlphaNum, s.AlphaDen), frac(s.BetaNum, s.BetaDen))
}

// Holds reports whether dh <= α·dg + β using exact integer arithmetic.
func (s Stretch) Holds(dg, dh int64) bool {
	// dh ≤ (αN/αD)·dg + βN/βD  ⟺  dh·αD·βD ≤ αN·βD·dg + βN·αD.
	return dh*s.AlphaDen*s.BetaDen <= s.AlphaNum*s.BetaDen*dg+s.BetaNum*s.AlphaDen
}

// Violation is a witness pair breaking a remote-spanner guarantee.
// DH is -1 when v is unreachable in H_u.
type Violation struct {
	U, V   int
	DG, DH int
	K      int // disjoint-path count for k-connecting checks (1 otherwise)
}

func (v *Violation) Error() string {
	return fmt.Sprintf("spanner: pair (%d,%d) k=%d: d_G=%d but d_{H_u}=%d", v.U, v.V, v.K, v.DG, v.DH)
}

// dhField normalizes a traversal distance for a Violation: the
// documented unreachable value is -1, independent of the internal
// graph.Unreached sentinel.
func dhField(d int32) int {
	if d == graph.Unreached {
		return -1
	}
	return int(d)
}

// batchedMinN is the vertex count below which verification stays on
// the scalar path: under two 64-source batches, mask bookkeeping costs
// more than it saves, and the scalar path doubles as the equivalence
// oracle the batched engine is tested against.
const batchedMinN = 128

// Check verifies the (α, β)-remote-spanner property of h against g for
// every ordered pair (u, v): d_{H_u}(u, v) ≤ α·d_G(u, v) + β for
// non-adjacent u, v (adjacent pairs hold trivially with distance 1).
// It returns the lexicographically smallest violating pair (min u,
// then min v), or nil — a deterministic witness regardless of worker
// scheduling or engine.
//
// Large inputs run on the word-parallel 64-source batch engine
// (verify_batch.go); tiny ones on the scalar reference path. Both are
// parallelized with per-worker scratch over immutable CSR snapshots
// taken up front.
func Check(g, h *graph.Graph, st Stretch) *Violation {
	cg, ch := graph.NewCSR(g), graph.NewCSR(h)
	// The batched judge needs positive denominators and α ≥ 0 for its
	// monotone threshold table; anything else (never produced by the
	// constructions) stays on the scalar reference.
	if cg.N() >= batchedMinN && st.AlphaDen > 0 && st.BetaDen > 0 && st.AlphaNum >= 0 {
		return checkBatchedCSR(cg, ch, st)
	}
	return checkScalarCSR(cg, ch, st)
}

// CheckScalar is the scalar reference implementation of Check: one
// BFS pair per vertex. It is the equivalence oracle for the batched
// engine (FuzzVerifyEquivalence) and the fallback for tiny graphs.
func CheckScalar(g, h *graph.Graph, st Stretch) *Violation {
	return checkScalarCSR(graph.NewCSR(g), graph.NewCSR(h), st)
}

// scalarVerifyWorker is one pooled worker slot of the scalar
// verification fan-out: BFS scratch for both graphs, reused across
// calls and regrown only when the vertex count does.
type scalarVerifyWorker struct {
	n  int
	vs *ViewScratch
	gs *graph.BFSScratch
}

// scalarVerifyEnv is the reusable environment of checkScalarCSR's
// shard fan-out, held like buildEnv through a sched.Shared.
type scalarVerifyEnv struct {
	sched.Env[scalarVerifyWorker]

	// Per-run job.
	cg, ch *graph.CSR
	st     Stretch
	// stop is the smallest source known to violate: once set, workers
	// skip sources ≥ stop, so the pool drains instead of scanning to
	// completion. Every source is claimed exactly once and stop only
	// decreases to recorded violations, so each source below the final
	// stop is still fully processed — which is what makes the returned
	// lexicographic minimum exact despite stealing.
	stop    atomic.Int64
	resMu   sync.Mutex
	best    Violation // by value: the shard body must not allocate
	hasBest bool

	body func(w, lo, hi int)
}

var sharedScalarVerifyEnv sched.Shared[scalarVerifyEnv]

//remspan:hotpath
func (e *scalarVerifyEnv) shard(w, lo, hi int) {
	sw := e.Slot(w)
	for u := lo; u < hi; u++ {
		if int64(u) >= e.stop.Load() {
			continue
		}
		// Touched-only reset keeps fragmented graphs O(Σ|component|),
		// not O(n) per root.
		dg, _, reached := sw.gs.BoundedView(e.cg, u, e.cg.N())
		dh := sw.vs.BFSCSR(e.cg, e.ch, u)
		minV := int32(-1)
		for _, v := range reached {
			if dg[v] < 2 {
				continue
			}
			if dh[v] == graph.Unreached || !e.st.Holds(int64(dg[v]), int64(dh[v])) {
				if minV < 0 || v < minV {
					minV = v
				}
			}
		}
		if minV < 0 {
			continue
		}
		for {
			cur := e.stop.Load()
			if int64(u) >= cur || e.stop.CompareAndSwap(cur, int64(u)) {
				break
			}
		}
		vio := Violation{U: u, V: int(minV), DG: int(dg[minV]), DH: dhField(dh[minV]), K: 1}
		e.resMu.Lock()
		if !e.hasBest || vio.U < e.best.U || (vio.U == e.best.U && vio.V < e.best.V) {
			e.best, e.hasBest = vio, true
		}
		e.resMu.Unlock()
	}
}

func checkScalarCSR(cg, ch *graph.CSR, st Stretch) *Violation {
	e := sharedScalarVerifyEnv.Acquire()
	defer sharedScalarVerifyEnv.Release(e)
	n := cg.N()
	width := sched.Workers(n)
	for _, sw := range e.Slots(width) {
		if sw.vs == nil || sw.n < n {
			sw.vs = NewViewScratch(n)
			sw.gs = graph.NewBFSScratch(n)
			sw.n = n
		}
	}
	if e.body == nil {
		e.body = e.shard //remspan:coldpath one-time method-value binding, cached across runs
	}
	e.cg, e.ch, e.st = cg, ch, st
	e.stop.Store(int64(n))
	e.hasBest = false
	e.Run(n, width, e.body)
	var best *Violation
	if e.hasBest {
		v := e.best
		best = &v
	}
	e.cg, e.ch = nil, nil
	return best
}

// Profile summarizes observed stretch over all pairs: the maximum of
// d_{H_u}(u,v)/d_G(u,v) and the average, over non-adjacent connected
// pairs.
type Profile struct {
	Pairs      int
	MaxStretch float64
	AvgStretch float64
	MaxAdd     int // max additive excess d_H_u − d_G
}

// profAcc accumulates a Profile in an order-independent form, so the
// scalar sweep, the 64-source batch sweep, and any worker interleaving
// all produce bit-identical results. The average's numerator is kept
// as exact integer sums bucketed by d_G (Σ d_H over pairs at each
// denominator); the only floating-point operations are a fixed-order
// reduction at the end plus max(), which commutes.
type profAcc struct {
	pairs      int
	maxAdd     int32
	maxStretch float64
	num        []int64 // num[d] = Σ d_H over pairs with d_G == d
}

func newProfAcc(n int) *profAcc {
	return &profAcc{num: make([]int64, n+1)}
}

// reset clears the accumulator for reuse over graphs with up to n
// vertices — the pooled per-worker accumulators of the batched
// profile fan-out are reset per run, not reallocated.
func (a *profAcc) reset(n int) {
	a.pairs, a.maxAdd, a.maxStretch = 0, 0, 0
	if len(a.num) < n+1 {
		a.num = make([]int64, n+1)
		return
	}
	clear(a.num)
}

// add records one (d_G, d_H) pair with d_G ≥ 2 and d_H reachable.
func (a *profAcc) add(dg, dh int32) {
	a.pairs++
	a.num[dg] += int64(dh)
	if s := float64(dh) / float64(dg); s > a.maxStretch {
		a.maxStretch = s
	}
	if add := dh - dg; add > a.maxAdd {
		a.maxAdd = add
	}
}

func (a *profAcc) merge(b *profAcc) {
	a.pairs += b.pairs
	for d, s := range b.num {
		a.num[d] += s
	}
	if b.maxStretch > a.maxStretch {
		a.maxStretch = b.maxStretch
	}
	if b.maxAdd > a.maxAdd {
		a.maxAdd = b.maxAdd
	}
}

func (a *profAcc) profile() Profile {
	p := Profile{Pairs: a.pairs, MaxStretch: a.maxStretch, MaxAdd: int(a.maxAdd)}
	if a.pairs == 0 {
		return p
	}
	sum := 0.0
	for d := 2; d < len(a.num); d++ {
		if a.num[d] != 0 {
			sum += float64(a.num[d]) / float64(d)
		}
	}
	p.AvgStretch = sum / float64(a.pairs)
	return p
}

// MeasureProfile computes the observed stretch profile of h over g.
// Large inputs run on the word-parallel 64-source batch engine with a
// worker pool; the result is bit-identical to MeasureProfileScalar
// (order-independent accumulation, see profAcc).
func MeasureProfile(g, h *graph.Graph) Profile {
	cg, ch := graph.NewCSR(g), graph.NewCSR(h)
	if cg.N() >= batchedMinN {
		return measureBatchedCSR(cg, ch)
	}
	return measureScalarCSR(cg, ch)
}

// MeasureProfileScalar is the scalar reference implementation of
// MeasureProfile: one BFS pair per vertex, serial.
func MeasureProfileScalar(g, h *graph.Graph) Profile {
	return measureScalarCSR(graph.NewCSR(g), graph.NewCSR(h))
}

func measureScalarCSR(cg, ch *graph.CSR) Profile {
	n := cg.N()
	vs := NewViewScratch(n)
	gs := graph.NewBFSScratch(n)
	acc := newProfAcc(n)
	for u := 0; u < n; u++ {
		dg, _, reached := gs.BoundedView(cg, u, n)
		dh := vs.BFSCSR(cg, ch, u)
		for _, v := range reached {
			if dg[v] < 2 || dh[v] == graph.Unreached {
				continue
			}
			acc.add(dg[v], dh[v])
		}
	}
	return acc.profile()
}

// CheckKConnecting verifies the k-connecting (α, β)-remote-spanner
// property: for all non-adjacent pairs (s, t) and k' ≤ k with
// d^{k'}_G(s,t) < ∞, d^{k'}_{H_s}(s,t) ≤ α·d^{k'}_G(s,t) + k'·β.
// pairs limits the check to the given (s, t) pairs; nil means all
// ordered pairs (quadratic × flow cost — small graphs only).
func CheckKConnecting(g, h *graph.Graph, k int, st Stretch, pairs [][2]int) *Violation {
	if pairs == nil {
		for s := 0; s < g.N(); s++ {
			for t := 0; t < g.N(); t++ {
				if s == t || g.HasEdge(s, t) {
					continue
				}
				if v := checkKPair(g, h, k, st, s, t); v != nil {
					return v
				}
			}
		}
		return nil
	}
	for _, p := range pairs {
		s, t := p[0], p[1]
		if s == t || g.HasEdge(s, t) {
			continue
		}
		if v := checkKPair(g, h, k, st, s, t); v != nil {
			return v
		}
	}
	return nil
}

func checkKPair(g, h *graph.Graph, k int, st Stretch, s, t int) *Violation {
	dg := flow.KDistanceProfile(g, s, t, k)
	hs := View(g, h, s)
	dh := flow.KDistanceProfile(hs, s, t, k)
	for kp := 1; kp <= k; kp++ {
		if dg[kp-1] < 0 {
			break
		}
		// d^{k'}_{H_s} ≤ α·d^{k'}_G + k'·β.
		need := Stretch{
			AlphaNum: st.AlphaNum, AlphaDen: st.AlphaDen,
			BetaNum: st.BetaNum * int64(kp), BetaDen: st.BetaDen,
		}
		if dh[kp-1] < 0 || !need.Holds(int64(dg[kp-1]), int64(dh[kp-1])) {
			return &Violation{U: s, V: t, DG: dg[kp-1], DH: dh[kp-1], K: kp}
		}
	}
	return nil
}

// Subset verifies h ⊆ g (every spanner edge is a graph edge).
func Subset(g *graph.Graph, h *graph.EdgeSet) bool { return h.SubsetOf(g) }
