package spanner

import (
	"math/rand"
	"strings"
	"testing"

	"remspan/internal/gen"
	"remspan/internal/geom"
	"remspan/internal/graph"
	"remspan/internal/testutil"
)

// verifyFamilies returns the generator families the batched verifier
// is pinned against, spanning the paper's workloads: geometric (UDG),
// random (ER), structured (grid, star, ring, hypercube), tree, and
// disconnected inputs.
func verifyFamilies() map[string]*graph.Graph {
	rng := rand.New(rand.NewSource(42))
	pts := geom.UniformBox(180, 2, 4, rng)
	udg := geom.UnitDiskGraph(pts, 1)
	fams := map[string]*graph.Graph{
		"udg":       udg,
		"er":        gen.ErdosRenyi(170, 0.03, rand.New(rand.NewSource(5))),
		"grid":      gen.Grid(13, 12),
		"star":      gen.Star(150),
		"ring":      gen.Ring(140),
		"hypercube": gen.Hypercube(7),
		"tree":      gen.RandomTree(160, rand.New(rand.NewSource(6))),
	}
	// Disconnected: two ER blobs plus isolated vertices.
	disc := graph.New(200)
	a := gen.ErdosRenyi(80, 0.06, rand.New(rand.NewSource(7)))
	for _, e := range a.Edges() {
		disc.AddEdge(int(e[0]), int(e[1]))
	}
	b := gen.ErdosRenyi(90, 0.05, rand.New(rand.NewSource(8)))
	for _, e := range b.Edges() {
		disc.AddEdge(int(e[0])+85, int(e[1])+85)
	}
	fams["disconnected"] = disc
	return fams
}

// dropEdges returns a subgraph of g with roughly the given fraction of
// edges removed — a deliberately broken "spanner" for violation paths.
func dropEdges(g *graph.Graph, frac float64, rng *rand.Rand) *graph.Graph {
	h := graph.New(g.N())
	for _, e := range g.Edges() {
		if rng.Float64() >= frac {
			h.AddEdge(int(e[0]), int(e[1]))
		}
	}
	return h
}

// checkScalarCSR is the serial scalar reference for Check: one BFS
// pair per source u — the G distances and one star-seeded H_u
// traversal — scanning sources in id order, so the first violating
// source yields the lexicographically smallest witness.
func checkScalarCSR(cg, ch *graph.CSR, st Stretch) *Violation {
	n := cg.N()
	gs, vs := graph.NewBFSScratch(n), NewViewScratch(n)
	for u := 0; u < n; u++ {
		dg, _, reached := gs.BoundedView(cg, u, n)
		dh := vs.BFSCSR(cg, ch, u)
		minV := int32(-1)
		for _, v := range reached {
			if dg[v] < 2 {
				continue
			}
			if dh[v] == graph.Unreached || !st.Holds(int64(dg[v]), int64(dh[v])) {
				if minV < 0 || v < minV {
					minV = v
				}
			}
		}
		if minV >= 0 {
			return &Violation{U: u, V: int(minV), DG: int(dg[minV]), DH: dhField(dh[minV]), K: 1}
		}
	}
	return nil
}

// measureScalarCSR is the serial scalar reference for MeasureProfile:
// one BFS pair per source vertex.
func measureScalarCSR(cg, ch *graph.CSR) Profile {
	n := cg.N()
	gs, vs := graph.NewBFSScratch(n), NewViewScratch(n)
	var acc profAcc
	acc.reset(n)
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

// TestStarDecompositionIdentity pins the identity the batched engine
// rests on (see verify_batch.go): the 64-source sweep over H alone,
// star-seeded from each source's G-neighbors, reproduces
// ViewScratch.BFSCSR's per-source H_u distances exactly — on every
// generator family, for intact and broken spanners.
func TestStarDecompositionIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for name, g := range verifyFamilies() {
		n := g.N()
		cg := graph.NewCSR(g)
		for hname, h := range map[string]*graph.Graph{
			"exact":  Exact(g).Graph(),
			"broken": dropEdges(Exact(g).Graph(), 0.4, rng),
			"empty":  graph.New(n),
		} {
			ch := graph.NewCSR(h)
			bs := graph.NewBitScratch(n)
			vs := NewViewScratch(n)
			// Shuffled source order: the identity must hold for arbitrary
			// batch compositions, not just id-contiguous ones.
			perm := rng.Perm(n)
			for base := 0; base < n; base += 64 {
				count := 64
				if base+count > n {
					count = n - base
				}
				sources := make([]int32, count)
				for i := range sources {
					sources[i] = int32(perm[base+i])
				}
				SweepViewBatch(bs, cg, ch, sources)
				for i, u := range sources {
					ref := vs.BFSCSR(cg, ch, int(u))
					for v := 0; v < n; v++ {
						if got := bs.Dist(uint(i), v); got != ref[v] {
							t.Fatalf("%s/%s: d_{H_%d}(%d) = %d, scalar %d",
								name, hname, u, v, got, ref[v])
						}
					}
				}
			}
		}
	}
}

// TestCheckBatchedMatchesScalar pins full Violation equality —
// including the first-violation witness pair under the deterministic
// batch order — between the scalar reference and the batched engine.
func TestCheckBatchedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	stretches := []Stretch{
		NewStretch(1, 0), NewStretch(2, -1), NewStretch(1, 2), LowStretchOf(3),
	}
	for name, g := range verifyFamilies() {
		cg := graph.NewCSR(g)
		for hname, h := range map[string]*graph.Graph{
			"exact":  Exact(g).Graph(),
			"broken": dropEdges(Exact(g).Graph(), 0.35, rng),
			"empty":  graph.New(g.N()),
		} {
			ch := graph.NewCSR(h)
			for _, st := range stretches {
				want := checkScalarCSR(cg, ch, st)
				got := checkBatchedCSR(cg, ch, st)
				if (want == nil) != (got == nil) {
					t.Fatalf("%s/%s %v: scalar %v, batched %v", name, hname, st, want, got)
				}
				if want != nil && *want != *got {
					t.Fatalf("%s/%s %v: witness differs: scalar %+v, batched %+v",
						name, hname, st, want, got)
				}
			}
		}
	}
}

// TestMeasureProfileBatchedMatchesScalar pins bit-identical Profile
// equality: the accumulation is order-independent, so the structs —
// floats included — must match exactly.
func TestMeasureProfileBatchedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, g := range verifyFamilies() {
		cg := graph.NewCSR(g)
		for hname, h := range map[string]*graph.Graph{
			"exact":  Exact(g).Graph(),
			"two":    TwoConnecting(g).Graph(),
			"broken": dropEdges(Exact(g).Graph(), 0.5, rng),
		} {
			ch := graph.NewCSR(h)
			want := measureScalarCSR(cg, ch)
			got := measureBatchedCSR(cg, ch)
			if want != got {
				t.Fatalf("%s/%s: scalar %+v, batched %+v", name, hname, want, got)
			}
		}
	}
}

// TestStretchThresholds cross-checks the precomputed threshold table
// against Stretch.Holds on integer and fractional stretches, negative
// additive terms included.
func TestStretchThresholds(t *testing.T) {
	for _, st := range []Stretch{
		NewStretch(1, 0), NewStretch(1, 2), NewStretch(2, -1), NewStretch(3, -2),
		LowStretchOf(3), LowStretchOf(5),
		{AlphaNum: 7, AlphaDen: 5, BetaNum: -3, BetaDen: 4},
	} {
		thr := StretchThresholds(st, 60)
		for d := int64(0); d <= 60; d++ {
			for dh := int64(0); dh <= 70; dh++ {
				holds := st.Holds(d, dh)
				byThr := dh <= int64(thr[d])
				if holds != byThr {
					t.Fatalf("%v d=%d dh=%d: Holds=%v threshold=%v (thr=%d)",
						st, d, dh, holds, byThr, thr[d])
				}
			}
		}
	}
}

// TestCheckPublicDispatch exercises the public entry points against
// the scalar references, witness and unreachable DH included.
func TestCheckPublicDispatch(t *testing.T) {
	g := gen.Grid(16, 16)
	h := Exact(g).Graph()
	cg := graph.NewCSR(g)
	if v := Check(g, h, NewStretch(1, 0)); v != nil {
		t.Fatalf("exact spanner rejected: %v", v)
	}
	if got, want := MeasureProfile(g, h), measureScalarCSR(cg, graph.NewCSR(h)); got != want {
		t.Fatalf("dispatched profile %+v != scalar %+v", got, want)
	}
	empty := graph.New(g.N())
	vb := Check(g, empty, NewStretch(1, 0))
	vs := checkScalarCSR(cg, graph.NewCSR(empty), NewStretch(1, 0))
	if vb == nil || vs == nil || *vb != *vs {
		t.Fatalf("dispatched witness %+v != scalar %+v", vb, vs)
	}
	if vb.DH != -1 {
		t.Fatalf("unreachable DH reported as %d, want -1", vb.DH)
	}
}

// TestCheckRejectsMalformedStretch pins Check's precondition: a stretch
// with a non-positive denominator or α < 0 panics with a spanner:
// message instead of reaching the threshold table.
func TestCheckRejectsMalformedStretch(t *testing.T) {
	g := gen.Ring(6)
	for _, st := range []Stretch{
		{AlphaNum: 1, AlphaDen: 0, BetaNum: 0, BetaDen: 1},
		{AlphaNum: 1, AlphaDen: 1, BetaNum: 0, BetaDen: -1},
		NewStretch(-1, 0),
	} {
		if st.WellFormed() {
			t.Fatalf("%+v reported well formed", st)
		}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "spanner: ") {
					t.Errorf("%+v: recovered %q, want a spanner: panic", st, msg)
				}
			}()
			Check(g, g, st)
		}()
	}
	for _, st := range []Stretch{NewStretch(1, 0), NewStretch(2, -1), LowStretchOf(3)} {
		if !st.WellFormed() {
			t.Fatalf("%v reported malformed", st)
		}
	}
}

// FuzzVerifyEquivalence differentially fuzzes the word-parallel
// verification engine against the serial scalar references: on random
// UDG/ER/grid/star graphs (disconnected variants included) of every
// size from 0 up, Check must return the same first-violation witness
// and MeasureProfile a bit-identical profile. oracle.Validate has its
// own half in internal/oracle.
func FuzzVerifyEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(10), uint8(100), uint8(80), int64(1))
	f.Add(uint8(1), uint8(200), uint8(30), uint8(0), int64(2))
	f.Add(uint8(2), uint8(77), uint8(200), uint8(255), int64(3))
	f.Add(uint8(3), uint8(5), uint8(0), uint8(40), int64(4))
	f.Add(uint8(4), uint8(160), uint8(90), uint8(120), int64(5))
	for i, n := range []uint8{0, 1, 2, 63, 64, 65, 127} { // around the 64-source batch width
		f.Add([]uint8{0, 1, 3}[i%3], n, uint8(60), uint8(90), int64(i)+6)
	}
	f.Fuzz(func(t *testing.T, fam, size, density, drop uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		g := fuzzVerifyGraph(fam, size, density, rng)
		h := dropEdges(Exact(g).Graph(), float64(drop)/384, rng)
		cg, ch := graph.NewCSR(g), graph.NewCSR(h)
		for _, st := range []Stretch{NewStretch(1, 0), NewStretch(2, -1), LowStretchOf(4)} {
			want, got := checkScalarCSR(cg, ch, st), Check(g, h, st)
			if (want == nil) != (got == nil) {
				t.Fatalf("Check %v: scalar %v, batched %v", st, want, got)
			}
			if want != nil && *want != *got {
				t.Fatalf("Check %v witness: scalar %+v, batched %+v", st, want, got)
			}
		}
		if want, got := measureScalarCSR(cg, ch), MeasureProfile(g, h); want != got {
			t.Fatalf("MeasureProfile: scalar %+v, batched %+v", want, got)
		}
	})
}

// fuzzVerifyGraph decodes a fuzz input into one of five families:
// unit-disk, Erdős–Rényi and star graphs on size vertices, a grid, or
// two disconnected ER blobs plus isolated vertices.
func fuzzVerifyGraph(fam, size, density uint8, rng *rand.Rand) *graph.Graph {
	n := int(size)
	switch fam % 5 {
	case 0:
		return geom.UnitDiskGraph(geom.UniformBox(n, 2, 3+float64(density%6), rng), 1)
	case 1:
		return gen.ErdosRenyi(n, 0.01+float64(density)/255*0.05, rng)
	case 2:
		return gen.Grid(1+n%16, 1+int(density)%16)
	case 3:
		return gen.Star(n)
	default:
		na, nb := n%64, int(density)%64
		g := graph.New(na + nb + 5)
		for _, e := range gen.ErdosRenyi(na, 0.05, rng).Edges() {
			g.AddEdge(int(e[0]), int(e[1]))
		}
		for _, e := range gen.ErdosRenyi(nb, 0.05, rng).Edges() {
			g.AddEdge(int(e[0])+na, int(e[1])+na)
		}
		return g
	}
}

func benchVerifyInput(b *testing.B, n int) (*graph.CSR, *graph.CSR) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	pts := geom.UniformBox(n, 2, 16, rng)
	g := geom.UnitDiskGraph(pts, 1)
	h := Exact(g).Graph()
	return graph.NewCSR(g), graph.NewCSR(h)
}

func BenchmarkCheckScalar(b *testing.B) {
	cg, ch := benchVerifyInput(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := checkScalarCSR(cg, ch, NewStretch(1, 0)); v != nil {
			b.Fatal(v)
		}
	}
}

func BenchmarkCheckBatched(b *testing.B) {
	cg, ch := benchVerifyInput(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := checkBatchedCSR(cg, ch, NewStretch(1, 0)); v != nil {
			b.Fatal(v)
		}
	}
}

func BenchmarkMeasureProfileScalar(b *testing.B) {
	cg, ch := benchVerifyInput(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		measureScalarCSR(cg, ch)
	}
}

func BenchmarkMeasureProfileBatched(b *testing.B) {
	cg, ch := benchVerifyInput(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		measureBatchedCSR(cg, ch)
	}
}

// TestViewJudgeZeroAlloc pins the steady-state allocation guarantee of
// the full batch verification path: a warm judge runs batches without
// allocating.
func TestViewJudgeZeroAlloc(t *testing.T) {
	g := verifyFamilies()["udg"]
	cg := graph.NewCSR(g)
	ch := graph.NewCSR(Exact(g).Graph())
	thr := StretchThresholds(NewStretch(1, 0), g.N())
	order, starts := graph.BatchOrder(cg)
	j := NewViewJudge(g.N())
	miss := func(bit int, v int32, dg int32) {
		t.Fatalf("exact spanner missed deadline at bit=%d v=%d dg=%d", bit, v, dg)
	}
	run := func() {
		for b := 0; b < len(starts)-1; b++ {
			j.Run(cg, ch, order[starts[b]:starts[b+1]], thr, miss)
		}
	}
	run() // warm-up
	testutil.PinAllocs(t, "warm judge", 10, run)
}
