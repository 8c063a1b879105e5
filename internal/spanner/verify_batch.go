package spanner

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"remspan/internal/graph"
	"remspan/internal/sched"
)

// Word-parallel verification: all-pairs remote-spanner checking on the
// 64-source bit-packed BFS engine (graph.BitScratch). One batch covers
// 64 sources u, and per batch two sweeps suffice:
//
//   - a plain batched BFS over G for the d_G side, and
//   - one batched sweep over H alone for all 64 augmented views H_u,
//     justified by the star decomposition below.
//
// Star-decomposition identity. H_u is H plus the star {u}×N_G(u), so
// for every v ≠ u:
//
//	d_{H_u}(u, v) = 1                            if v ∈ N_G(u),
//	d_{H_u}(u, v) = 1 + min_{w ∈ N_G(u)} d_H(w, v)   otherwise.
//
// Proof sketch. (≤) u–w is an H_u-edge for each w ∈ N_G(u), and any
// H-path from w to v is also an H_u-path, giving a u→v walk of length
// 1 + d_H(w, v). (≥) Take a shortest H_u-path P from u to v and let w
// be the successor of u's final occurrence on P (w ∈ N_{H_u}(u) ⊆
// N_G(u), using H ⊆ G so every H-edge at u joins u to a G-neighbor).
// The suffix of P from w to v uses no edge incident to u — any such
// edge would revisit u after w, contradicting the choice of w on a
// shortest path — hence every suffix edge is an H-edge, so
// |P| ≥ 1 + d_H(w, v). Consequently seeding bit u at every w ∈ N_G(u)
// with distance 1 and sweeping over H alone computes d_{H_u}(u, ·)
// exactly: no per-source graph H_u is ever materialized or traversed.
// (The sweep never expands from u itself; that loses nothing because
// N_H(u) ⊆ N_G(u) is already seeded.) Pinned against
// ViewScratch.BFSCSR across generator families by
// TestStarDecompositionIdentity.
//
// Sources are partitioned by graph.BatchOrderScratch.Order into
// mutually close balls, not by vertex id: a bit-packed sweep costs
// O(edges × distinct wavefront levels), so 64 scattered sources on a
// high-diameter graph (the UDG workloads) would forfeit the whole 64×
// — clustered sources keep the wavefronts coincident.
//
// JudgeViews then relabels both inputs by that order: it snapshots G
// and H with vertex order[i] renamed i (graph.CSR.Relabel, rows
// sorted), so batch b is the contiguous ids [starts[b], starts[b+1])
// and the vertices a ball's wavefronts touch sit close together in the
// mask stripes, instead of scattered by the caller's ids (on the UDG
// workloads those are random in the plane). Each deadline miss is
// mapped back through order before it is reduced, so the witness is
// the same pair in the caller's ids.
//
// Check and oracle validation run the two sweeps in deadline lockstep
// (ViewJudge) and never materialize a distance: a pair (u, v) first
// visited by the G-sweep at level d satisfies the stretch iff bit u is
// in v's H-visited mask once the H-sweep has completed level thr[d] =
// max d_H allowed at d_G = d. The H-sweep is advanced exactly to each
// pending deadline — thresholds are monotone in d (α ≥ 0), so
// deadlines arrive in FIFO order — and the judge is a single
// AND-NOT per delivery. Working set: O(n) mask stripes, no O(64·n)
// rows. MeasureProfile, which needs the d_H values themselves, keeps
// the row-recording sweep.
//
// Determinism contract: the witness is the globally lexicographically
// smallest violating pair (min u, then min v) — identical to a serial
// source-by-source scan and independent of batch composition and
// worker schedule. Violations only ever shrink the best pair, so once
// one is found, every batch whose smallest source id cannot beat it is
// skipped. Profile accumulation is order-independent by construction
// (profAcc).

// SweepViewBatch runs the batched star-decomposed sweep for the
// augmented views H_u over the given sources (1 ≤ len ≤ 64, bit i ↔
// sources[i]): each source is seeded at distance 0, its G-neighbors at
// distance 1, and the batch expands over H alone. Results are read
// through s.Visited/Row/Dist until the next batch.
//
//remspan:hotpath
func SweepViewBatch(s *graph.BitScratch, cg, ch *graph.CSR, sources []int32) {
	seedViewBatch(s, cg, sources)
	s.Sweep(ch, 2)
}

//remspan:hotpath
func seedViewBatch(s *graph.BitScratch, cg *graph.CSR, sources []int32) {
	s.Begin()
	for i, uu := range sources {
		u := int(uu)
		s.Seed(uint(i), u, 0)
		for _, w := range cg.Neighbors(u) {
			s.SeedFrontier(uint(i), int(w), 1)
		}
	}
}

// StretchThresholds precomputes, for every possible d_G value d, the
// largest d_H that still satisfies the stretch: Holds(d, dh) ⟺
// dh·αD·βD ≤ αN·βD·d + βN·αD ⟺ dh ≤ ⌊(αN·βD·d + βN·αD)/(αD·βD)⌋
// (denominators positive). The lockstep judge then tests one visited
// bit per pair instead of three 64-bit multiplies; the table is
// monotone non-decreasing whenever α ≥ 0, which ViewJudge.Run
// requires.
func StretchThresholds(st Stretch, n int) []int32 {
	den := st.AlphaDen * st.BetaDen
	thr := make([]int32, n+1)
	for d := 0; d <= n; d++ {
		t := floorDiv(st.AlphaNum*st.BetaDen*int64(d)+st.BetaNum*st.AlphaDen, den)
		switch {
		case t > math.MaxInt32:
			t = math.MaxInt32
		case t < -1:
			t = -1 // distances are non-negative; any finite d_H violates
		}
		thr[d] = int32(t)
	}
	return thr
}

// floorDiv returns ⌊a/b⌋ for b > 0 (Go's / truncates toward zero).
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// delivery is one buffered G-sweep first-visit event awaiting its
// stretch deadline.
type delivery struct {
	v    int32
	dg   int32
	bits uint64
}

// ViewJudge is the reusable deadline-lockstep judge for one batch of
// augmented views: it interleaves the G-sweep and the star-decomposed
// H-sweep over masks-only scratches and reports every (source, vertex)
// pair whose H_u arrival misses its stretch deadline. It holds O(n)
// state and is not safe for concurrent use; pools give each worker its
// own.
type ViewJudge struct {
	gbs, hbs *graph.BitScratch
	buf      []delivery
	visitG   func(v int32, newBits uint64, level int32)
}

// NewViewJudge returns a judge for graphs with up to n vertices.
func NewViewJudge(n int) *ViewJudge {
	j := &ViewJudge{
		gbs: graph.NewBitScratchMasks(n),
		hbs: graph.NewBitScratchMasks(n),
		buf: make([]delivery, 0, n),
	}
	// Bound once so a Run is allocation-free when the buffer is warm.
	j.visitG = func(v int32, newBits uint64, dg int32) {
		if dg >= 2 {
			j.buf = append(j.buf, delivery{v: v, dg: dg, bits: newBits})
		}
	}
	return j
}

// Run judges one batch: onMiss(bit, v, dg) is called for every pair
// (sources[bit], v) with d_G = dg ≥ 2 whose d_{H_u} exceeds thr[dg]
// (unreachable included), in G-level order. thr must be monotone
// non-decreasing (StretchThresholds of any stretch with α ≥ 0).
func (j *ViewJudge) Run(cg, ch *graph.CSR, sources []int32, thr []int32, onMiss func(bit int, v int32, dg int32)) {
	gbs, hbs := j.gbs, j.hbs
	seedViewBatch(hbs, cg, sources)
	gbs.Begin()
	for i, u := range sources {
		gbs.SeedFrontier(uint(i), int(u), 0)
	}
	j.buf = j.buf[:0]
	gbs.SetVisit(j.visitG)
	// H has completed level 1 (the star seeds); each pending G-delivery
	// at level d is judged once H completes level max(thr[d], 1) —
	// exactly then, never later, so the visited mask test is precise.
	// Deadlines are monotone in d, so the buffer drains in FIFO order.
	hLevel, gLevel := int32(1), int32(0)
	hAlive, gAlive := true, true
	head := 0
	for gAlive || head < len(j.buf) {
		if gAlive {
			gLevel++
			gAlive = gbs.Step(cg, gLevel)
		}
		for head < len(j.buf) {
			dl := thr[j.buf[head].dg]
			if dl < 1 {
				dl = 1
			}
			// hLevel ≤ dl on entry (deadlines are FIFO-monotone), so this
			// lands exactly on the deadline — overshooting would let
			// late H arrivals masquerade as on-time.
			for hAlive && hLevel < dl {
				hLevel++
				hAlive = hbs.Step(ch, hLevel)
			}
			e := j.buf[head]
			if miss := e.bits &^ hbs.Visited(int(e.v)); miss != 0 {
				for b := miss; b != 0; b &= b - 1 {
					onMiss(bits.TrailingZeros64(b), e.v, e.dg)
				}
			}
			head++
		}
	}
	gbs.SetVisit(nil)
}

// batchMinSource returns the smallest source id in each batch — the
// bound the violation skip filter compares against.
func batchMinSource(order, starts []int32) []int32 {
	minU := make([]int32, len(starts)-1)
	for b := range minU {
		m := order[starts[b]]
		for _, u := range order[starts[b]+1 : starts[b+1]] {
			if u < m {
				m = u
			}
		}
		minU[b] = m
	}
	return minU
}

// checkScan reduces one batch's deadline misses to the
// lexicographically smallest violating pair in the caller's ids.
type checkScan struct {
	back  []int32 // caller id of each relabeled vertex (the run's order)
	found uint64
	minV  [64]int32 // smallest violating v per source bit
	minDG [64]int32 // d_G at that v
}

// miss records a deadline miss of relabeled vertex v, mapped back to
// the caller's id first: the relabeling does not preserve id order,
// so the smallest relabeled v need not be the smallest caller id.
func (cs *checkScan) miss(bit int, v int32, dg int32) {
	v = cs.back[v]
	b := uint64(1) << uint(bit)
	if cs.found&b == 0 || v < cs.minV[bit] {
		cs.found |= b
		cs.minV[bit] = v
		cs.minDG[bit] = dg
	}
}

// resolve reduces the batch's accumulated misses to the
// lexicographically smallest violating (u, v, d_G). Sources within a
// ball are not id-ordered, so every violating bit is considered.
func (cs *checkScan) resolve(sources []int32) (u, v int, dg int32) {
	bestI := -1
	for b := cs.found; b != 0; b &= b - 1 {
		i := bits.TrailingZeros64(b)
		if bestI < 0 || sources[i] < sources[bestI] {
			bestI = i
		}
	}
	return int(sources[bestI]), int(cs.minV[bestI]), cs.minDG[bestI]
}

// judgeWorker is one pooled worker slot of the lockstep-judge
// fan-out: the O(n) judge and its miss scan survive across calls,
// regrown only when the vertex count does.
type judgeWorker struct {
	n     int
	judge *ViewJudge
	cs    checkScan
	miss  func(bit int, v int32, dg int32) // bound once, reused across batches
}

// judgeEnv is the reusable environment of JudgeViews' shard fan-out
// over ball-clustered batches, held like buildEnv through a
// sched.Shared.
type judgeEnv struct {
	sched.Env[judgeWorker]
	order graph.BatchOrderScratch

	// Per-run job: the snapshots relabeled by srcOrder (vertex
	// srcOrder[i] is i), the identity ids whose [starts[b],
	// starts[b+1]) are batch b's sources, and srcOrder to map back.
	cg, ch           *graph.CSR
	srcOrder, starts []int32
	ids              []int32
	minU, thr        []int32
	// Smallest violating source seen so far: batches whose smallest
	// source exceeds it cannot improve the lexicographic minimum and
	// are skipped (see the determinism contract above).
	bestU  atomic.Int64
	resMu  sync.Mutex
	bu, bv int
	bdg    int32

	body func(w, lo, hi int)
}

var sharedJudgeEnv sched.Shared[judgeEnv]

//remspan:hotpath
func (e *judgeEnv) shard(w, lo, hi int) {
	jw := e.Slot(w)
	for b := lo; b < hi; b++ {
		if int64(e.minU[b]) > e.bestU.Load() {
			continue
		}
		jw.cs.found = 0
		jw.judge.Run(e.cg, e.ch, e.ids[e.starts[b]:e.starts[b+1]], e.thr, jw.miss)
		if jw.cs.found == 0 {
			continue
		}
		cu, cv, cdg := jw.cs.resolve(e.srcOrder[e.starts[b]:e.starts[b+1]])
		for {
			cur := e.bestU.Load()
			if int64(cu) >= cur || e.bestU.CompareAndSwap(cur, int64(cu)) {
				break
			}
		}
		e.resMu.Lock()
		if e.bu < 0 || cu < e.bu || (cu == e.bu && cv < e.bv) {
			e.bu, e.bv, e.bdg = cu, cv, cdg
		}
		e.resMu.Unlock()
	}
}

// JudgeViews runs the deadline-lockstep judge over every
// ball-clustered 64-source batch on the shard scheduler, on snapshots
// of cg and ch relabeled by the ball order, and returns the
// lexicographically smallest pair violating the stretch in the
// augmented views, in cg's ids (ok=false when the guarantee holds
// everywhere). The snapshots belong to the call.
// Preconditions: ch ⊆ cg (no underestimates to catch — the judge only
// tests the upper bound) and a WellFormed stretch (monotone
// thresholds); callers with untrusted inputs must guard and fall back
// to a scalar pass. The shared engine behind both spanner.Check and
// oracle.Validate.
func JudgeViews(cg, ch *graph.CSR, st Stretch) (u, v int, dg int32, ok bool) {
	e := sharedJudgeEnv.Acquire()
	defer sharedJudgeEnv.Release(e)
	n := cg.N()
	e.srcOrder, e.starts = e.order.Order(cg)
	nb := len(e.starts) - 1
	width := sched.Workers(nb)
	for _, jw := range e.Slots(width) {
		if jw.judge == nil || jw.n < n {
			jw.judge = NewViewJudge(n)
			jw.n = n
		}
		if jw.miss == nil {
			jw.miss = jw.cs.miss
		}
		jw.cs.back = e.srcOrder
	}
	if e.body == nil {
		e.body = e.shard //remspan:coldpath one-time method-value binding, cached across runs
	}
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	e.cg, e.ch, e.ids = cg.Relabel(e.srcOrder), ch.Relabel(e.srcOrder), ids
	e.minU = batchMinSource(e.srcOrder, e.starts)
	e.thr = StretchThresholds(st, n)
	e.bestU.Store(int64(n))
	e.bu, e.bv, e.bdg = -1, -1, 0
	e.RunHeavy(nb, width, e.body)
	u, v, dg = e.bu, e.bv, e.bdg
	e.cg, e.ch, e.srcOrder, e.starts, e.ids, e.minU, e.thr = nil, nil, nil, nil, nil, nil, nil
	return u, v, dg, u >= 0
}

// checkBatchedCSR is Check on the word-parallel engine, resolving the
// witness's d_{H_u} with one scalar traversal (the lockstep judge
// never materializes distances).
func checkBatchedCSR(cg, ch *graph.CSR, st Stretch) *Violation {
	u, v, dg, ok := JudgeViews(cg, ch, st)
	if !ok {
		return nil
	}
	vs := NewViewScratch(cg.N())
	return &Violation{U: u, V: v, DG: int(dg), DH: dhField(vs.BFSCSR(cg, ch, u)[v]), K: 1}
}

// measureWorker is one pooled worker slot of the profile fan-out:
// both bit-sweep scratches, the order-independent accumulator, and a
// visit closure bound to them, all retained across calls.
type measureWorker struct {
	n     int
	gbs   *graph.BitScratch
	hbs   *graph.BitScratch
	acc   profAcc
	visit func(v int32, newBits uint64, dg int32)
}

// measureEnv is the reusable environment of measureBatchedCSR's shard
// fan-out, held like buildEnv through a sched.Shared.
type measureEnv struct {
	sched.Env[measureWorker]
	order graph.BatchOrderScratch

	// Per-run job.
	cg, ch           *graph.CSR
	srcOrder, starts []int32

	body func(w, lo, hi int)
}

var sharedMeasureEnv sched.Shared[measureEnv]

//remspan:hotpath
func (e *measureEnv) shard(w, lo, hi int) {
	mw := e.Slot(w)
	for b := lo; b < hi; b++ {
		sources := e.srcOrder[e.starts[b]:e.starts[b+1]]
		SweepViewBatch(mw.hbs, e.cg, e.ch, sources)
		mw.gbs.SweepSourcesVisit(e.cg, sources, mw.visit)
	}
}

// measureBatchedCSR is MeasureProfile on the word-parallel engine. The
// H-sweep records distance rows (the profile needs the values); the
// G-sweep streams first visits into a per-worker profAcc. Accumulation
// is order-independent and the merge runs in ascending worker order,
// so the result is bit-identical at every width.
func measureBatchedCSR(cg, ch *graph.CSR) Profile {
	e := sharedMeasureEnv.Acquire()
	defer sharedMeasureEnv.Release(e)
	n := cg.N()
	e.srcOrder, e.starts = e.order.Order(cg)
	nb := len(e.starts) - 1
	width := sched.Workers(nb)
	slots := e.Slots(width)
	for _, mw := range slots {
		if mw.gbs == nil || mw.n < n {
			mw.gbs = graph.NewBitScratchMasks(n)
			mw.hbs = graph.NewBitScratch(n)
			mw.n = n
			hbs, acc := mw.hbs, &mw.acc
			mw.visit = func(v int32, newBits uint64, dg int32) {
				if dg < 2 {
					return
				}
				hm := hbs.Visited(int(v))
				hrow := hbs.Row(int(v))
				for bm := newBits & hm; bm != 0; bm &= bm - 1 {
					acc.add(dg, hrow[bits.TrailingZeros64(bm)])
				}
			}
		}
		mw.acc.reset(n)
	}
	if e.body == nil {
		e.body = e.shard //remspan:coldpath one-time method-value binding, cached across runs
	}
	e.cg, e.ch = cg, ch
	e.RunHeavy(nb, width, e.body)
	e.cg, e.ch, e.srcOrder, e.starts = nil, nil, nil, nil
	total := &slots[0].acc
	for _, mw := range slots[1:] {
		total.merge(&mw.acc)
	}
	return total.profile()
}
