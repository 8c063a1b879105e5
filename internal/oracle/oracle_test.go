package oracle

import (
	"math/rand"
	"testing"

	"remspan/internal/gen"
	"remspan/internal/graph"
	"remspan/internal/reference"
	"remspan/internal/spanner"
)

func randomConnected(n, extra int, rng *rand.Rand) *graph.Graph {
	g := gen.RandomTree(n, rng)
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

func TestExactOracleIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		g := randomConnected(20+rng.Intn(30), 60, rng)
		res := spanner.Exact(g)
		o := New(g, res.Graph(), spanner.NewStretch(1, 0))
		d := reference.AllPairsDistances(g)
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if got := o.Query(u, v); got != int(d[u][v]) {
					t.Fatalf("trial %d: Query(%d,%d)=%d, want %d", trial, u, v, got, d[u][v])
				}
			}
		}
	}
}

func TestLowStretchOracleGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomConnected(50, 100, rng)
	res := spanner.LowStretch(g, 0.5)
	o := New(g, res.Graph(), spanner.LowStretchOf(res.R))
	if u, v := o.Validate(); u != -1 {
		t.Fatalf("guarantee violated at (%d,%d)", u, v)
	}
}

func TestOracleNeverUnderestimates(t *testing.T) {
	// Even with a terrible spanner (empty H), estimates are either -1
	// (unreachable beyond neighbors) or exact for trivial cases — never
	// below d_G.
	g := gen.Ring(10)
	o := New(g, graph.New(10), spanner.NewStretch(1, 0))
	d := reference.AllPairsDistances(g)
	for u := 0; u < 10; u++ {
		for v := 0; v < 10; v++ {
			if u == v {
				continue
			}
			est := o.Query(u, v)
			if est != -1 && est < int(d[u][v]) {
				t.Fatalf("underestimate at (%d,%d): %d < %d", u, v, est, d[u][v])
			}
		}
	}
}

func TestQueryBatchMatchesQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnected(40, 80, rng)
	res := spanner.TwoConnecting(g)
	o := New(g, res.Graph(), spanner.NewStretch(2, -1))
	targets := []int{0, 5, 17, 39, 12}
	for u := 0; u < g.N(); u += 7 {
		batch := o.QueryBatch(u, targets)
		q := o.Clone()
		for i, tgt := range targets {
			if got := q.Query(u, tgt); got != batch[i] {
				t.Fatalf("batch disagrees at u=%d t=%d: %d vs %d", u, tgt, batch[i], got)
			}
		}
	}
}

func TestStorageSavings(t *testing.T) {
	// The oracle's storage must be far below the n² distance table on a
	// dense UDG-like input.
	rng := rand.New(rand.NewSource(4))
	g := randomConnected(300, 8000, rng)
	res := spanner.Exact(g)
	o := New(g, res.Graph(), spanner.NewStretch(1, 0))
	if o.StorageWords() >= g.N()*g.N() {
		t.Fatalf("storage %d not below n²=%d", o.StorageWords(), g.N()*g.N())
	}
}

func TestCloneIndependence(t *testing.T) {
	g := gen.Ring(12)
	res := spanner.Exact(g)
	o := New(g, res.Graph(), spanner.NewStretch(1, 0))
	c := o.Clone()
	// Interleave queries — scratch reuse must not leak between clones.
	a1 := o.Query(0, 6)
	b1 := c.Query(3, 9)
	a2 := o.Query(0, 6)
	if a1 != a2 || b1 != c.Query(3, 9) {
		t.Fatal("clone interference")
	}
	if o.st != c.st {
		t.Fatal("stretch metadata lost")
	}
}

func TestValidateBatchedMatchesScalar(t *testing.T) {
	// Validate runs the local certificate, then the 64-source batch
	// engine; it must return exactly the scalar reference's witness —
	// (-1,-1) on intact oracles, the first (u,v) in lexicographic order
	// on broken ones.
	rng := rand.New(rand.NewSource(21))
	g := randomConnected(300, 700, rng)
	good := New(g, spanner.Exact(g).Graph(), spanner.NewStretch(1, 0))
	if su, sv := good.ValidateScalar(); su != -1 || sv != -1 {
		t.Fatalf("scalar rejects exact oracle at (%d,%d)", su, sv)
	}
	if bu, bv := good.Validate(); bu != -1 || bv != -1 {
		t.Fatalf("batched rejects exact oracle at (%d,%d)", bu, bv)
	}
	// Claim (1,0) for a spanner with half its edges knocked out.
	h := dropFuzzEdges(spanner.Exact(g).Graph(), 0.5, rng)
	bad := New(g, h, spanner.NewStretch(1, 0))
	su, sv := bad.ValidateScalar()
	bu, bv := bad.Validate()
	if su != bu || sv != bv {
		t.Fatalf("witness differs: scalar (%d,%d), batched (%d,%d)", su, sv, bu, bv)
	}
	if su == -1 {
		t.Fatal("expected a violation witness for the over-claimed stretch")
	}
	// Both spanners at every fuzz stretch: the exact one is valid
	// exactly when the stretch admits exact distances.
	ex := spanner.Exact(g).Graph()
	for _, st := range fuzzStretches {
		for i, o := range []*Oracle{New(g, ex, st), New(g, h, st)} {
			su, sv := o.ValidateScalar()
			bu, bv := o.Validate()
			if su != bu || sv != bv {
				t.Fatalf("%v oracle %d: witness differs: scalar (%d,%d), batched (%d,%d)", st, i, su, sv, bu, bv)
			}
			if i == 0 && (su == -1) != st.AdmitsExact() {
				t.Fatalf("%v: exact oracle valid = %v, stretch admits exact = %v", st, su == -1, st.AdmitsExact())
			}
		}
	}
}

// BenchmarkOracleValidate regression-pins the Validate cost: the old
// implementation re-ran a Query BFS per (u,v) pair — O(n²·m) — and
// would blow this benchmark up by ~n×; the scalar path is one BFS pair
// per source, the batched path 64 sources per sweep, and the local
// certificate one read of each node's 2-ball.
func BenchmarkOracleValidate(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	g := randomConnected(1000, 3000, rng)
	o := New(g, spanner.Exact(g).Graph(), spanner.NewStretch(1, 0))
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if u, v := o.ValidateScalar(); u != -1 {
				b.Fatalf("violation at (%d,%d)", u, v)
			}
		}
	})
	b.Run("bitparallel", func(b *testing.B) {
		// The engine Validate falls back to, timed directly: on this
		// exact oracle Validate itself stops at the certificate.
		for i := 0; i < b.N; i++ {
			if u, v, _, bad := spanner.JudgeViews(o.cg, o.ch, o.st); bad {
				b.Fatalf("violation at (%d,%d)", u, v)
			}
		}
	})
	b.Run("certified", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if u, v := o.Validate(); u != -1 {
				b.Fatalf("violation at (%d,%d)", u, v)
			}
		}
	})
}

func TestValidateCatchesUnderestimateOutsideSubset(t *testing.T) {
	// h ⊄ g: a shortcut edge absent from G makes the oracle
	// underestimate. The batched judge only tests the upper bound, so
	// Validate must detect the broken subset precondition and take the
	// two-sided scalar path — and agree with ValidateScalar exactly.
	n := 200
	g := gen.Path(n)
	h := graph.New(n)
	h.AddEdge(1, n-1) // not a G edge: d_{H_0}(0, n-1) = 2 ≪ d_G = n-1
	o := New(g, h, spanner.NewStretch(1, 0))
	su, sv := o.ValidateScalar()
	bu, bv := o.Validate()
	if su != bu || sv != bv {
		t.Fatalf("witness differs: scalar (%d,%d), batched (%d,%d)", su, sv, bu, bv)
	}
	if su == -1 {
		t.Fatal("underestimating oracle reported as valid")
	}
}

func TestValidateMalformedStretchFallsBackToScalar(t *testing.T) {
	// An open Stretch struct permits zero denominators and negative α;
	// the batched judge's threshold table cannot represent those, so
	// Validate must route them to the scalar reference (no panic, same
	// answer).
	rng := rand.New(rand.NewSource(31))
	g := randomConnected(150, 300, rng)
	h := spanner.Exact(g).Graph()
	for _, st := range []spanner.Stretch{
		{AlphaNum: 2, AlphaDen: 1},                          // BetaDen == 0
		{AlphaNum: -1, AlphaDen: 1, BetaNum: 5, BetaDen: 1}, // α < 0
		{AlphaNum: 1, AlphaDen: -1, BetaNum: 0, BetaDen: 1}, // αD < 0
	} {
		o := New(g, h, st)
		su, sv := o.ValidateScalar()
		bu, bv := o.Validate()
		if su != bu || sv != bv {
			t.Fatalf("stretch %+v: scalar (%d,%d), batched (%d,%d)", st, su, sv, bu, bv)
		}
	}
}
