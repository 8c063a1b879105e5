package spanner

import (
	"fmt"

	"remspan/internal/flow"
	"remspan/internal/graph"
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

// WellFormed reports whether the stretch has positive denominators and
// α ≥ 0, as the engine's monotone StretchThresholds table needs; every
// construction's guarantee is well formed.
func (s Stretch) WellFormed() bool {
	return s.AlphaDen > 0 && s.BetaDen > 0 && s.AlphaNum >= 0
}

// AdmitsExact reports whether exact distances satisfy the stretch:
// d ≤ α·d + β for every d_G = d ≥ 2. With α ≥ 1 the slack (α−1)·d + β
// is smallest at d = 2, so Holds(2, 2) decides. (1, 0), (2, −1) and
// every LowStretchOf(r) admit them. s must be WellFormed.
func (s Stretch) AdmitsExact() bool {
	return s.AlphaNum >= s.AlphaDen && s.Holds(2, 2)
}

// Check verifies the (α, β)-remote-spanner property of h against g for
// every ordered pair (u, v): d_{H_u}(u, v) ≤ α·d_G(u, v) + β for
// non-adjacent u, v (adjacent pairs hold trivially with distance 1).
// It returns the lexicographically smallest violating pair (min u,
// then min v), or nil — a deterministic witness regardless of worker
// scheduling.
//
// When the stretch AdmitsExact, the local certificate CertifyExact
// runs first and a pass is the answer. Otherwise, and whenever the
// certificate fails, the word-parallel 64-source batch engine
// (verify_batch.go) judges every pair, parallelized with per-worker
// scratch over immutable CSR snapshots, and finds the witness. h must
// be a subgraph of g, as every remote-spanner is (the engine's star
// decomposition rests on it). Check panics on a stretch that is not
// WellFormed.
func Check(g, h *graph.Graph, st Stretch) *Violation {
	if !st.WellFormed() {
		panic(fmt.Sprintf("spanner: stretch %v is not well formed (need positive denominators and α ≥ 0)", st))
	}
	cg, ch := graph.NewCSR(g), graph.NewCSR(h)
	if st.AdmitsExact() && CertifyExact(cg, ch) {
		return nil
	}
	return checkBatchedCSR(cg, ch, st)
}

// CertifyExact is the local certificate of the exact case (Prop. 5
// with k = 1, Th. 2): it reports whether, for every vertex a, each
// vertex at G-distance 2 from a is an H-neighbor of some w ∈ N_G(a),
// so that H_a reaches a's distance-2 ring in two hops. cg and ch share
// one vertex set.
//
// Sound for any h: a pass gives d_{H_a}(a, b) ≤ d_G(a, b) = d for
// every pair, by induction on d. The star gives d ≤ 1 and the
// certificate at a gives d = 2. For d ≥ 3, let x precede b by two
// steps on a shortest a–b path; the certificate at x gives
// z ∈ N_G(x) with zb ∈ H, and d_G(a, z) ≤ d−1, so
// d_{H_a}(a, b) ≤ d_{H_a}(a, z) + 1 ≤ d.
// Exact for h ⊆ g: a (1, 0)-remote-spanner reaches each such b by an
// H_a path a–w–b, where w ∈ N_G(a) and wb, not incident to a, is an
// H-edge.
//
// It reads each root's 2-ball once, Σ_{w∈N_G(a)} (deg_G(w) + deg_H(w))
// adjacency entries per root, serially with one stamp array, and stops
// at the first uncovered vertex.
func CertifyExact(cg, ch *graph.CSR) bool {
	stamp := make([]int32, cg.N())
	for a := range stamp {
		s := int32(a + 1)
		stamp[a] = s
		for _, w := range cg.Neighbors(a) {
			stamp[w] = s
			for _, x := range ch.Neighbors(int(w)) {
				stamp[x] = s
			}
		}
		for _, w := range cg.Neighbors(a) {
			for _, x := range cg.Neighbors(int(w)) {
				if stamp[x] != s {
					return false
				}
			}
		}
	}
	return true
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

// profAcc accumulates a Profile in an order-independent form, so any
// source order — the 64-source batch sweep under any worker
// interleaving, or one source at a time — produces bit-identical
// results. The average's numerator is kept
// as exact integer sums bucketed by d_G (Σ d_H over pairs at each
// denominator); the only floating-point operations are a fixed-order
// reduction at the end plus max(), which commutes.
type profAcc struct {
	pairs      int
	maxAdd     int32
	maxStretch float64
	num        []int64 // num[d] = Σ d_H over pairs with d_G == d
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

// MeasureProfile computes the observed stretch profile of h over g on
// the word-parallel 64-source batch engine with a worker pool; the
// result is bit-identical at every width and source order
// (order-independent accumulation, see profAcc). h must be a subgraph
// of g, as for Check.
func MeasureProfile(g, h *graph.Graph) Profile {
	return measureBatchedCSR(graph.NewCSR(g), graph.NewCSR(h))
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
