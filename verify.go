package remspan

import (
	"cmp"
	"fmt"

	"remspan/internal/flow"
	"remspan/internal/routing"
	"remspan/internal/spanner"
)

// Verify checks the (α, β)-remote-spanner property of h against g over
// all pairs exactly, returning a descriptive error for the violated
// pair with the smallest (u, v) (nil = the guarantee holds). When exact
// distances meet the stretch ((1, 0), (2, −1), every LowStretch
// guarantee), a local certificate runs first: every augmented view
// H_u reaching u's distance-2 ring in two hops (the paper's Prop. 5
// with k = 1) proves the guarantee, reading only each node's 2-ball.
// Other stretches, and any h that fails the certificate, run on the
// word-parallel 64-source bit-packed BFS engine (see
// internal/spanner/verify_batch.go), which also finds the witness; h
// must be a subgraph of g, as every remote-spanner is. A stretch that
// is not well formed is a *StretchError; a spanner whose vertex count
// differs from g's is an error.
func Verify(g *Graph, h *Graph, st Stretch) error {
	if err := sameVertices("Verify", g, h); err != nil {
		return err
	}
	if !st.internal().WellFormed() {
		return &StretchError{Stretch: st}
	}
	if v := spanner.Check(g.raw(), h.raw(), st.internal()); v != nil {
		return fmt.Errorf("remspan: %w", error(v))
	}
	return nil
}

// VerifySpanner checks a constructed spanner against its own declared
// guarantee with Verify (the local certificate first, the word-parallel
// engine otherwise), plus the k-connecting part, sampled over all
// pairs — quadratic × flow cost, intended for small graphs.
func VerifySpanner(g *Graph, s *Spanner) error {
	if err := cmp.Or(nilArg("VerifySpanner", "g", g == nil), nilArg("VerifySpanner", "s", s == nil)); err != nil {
		return err
	}
	if err := Verify(g, s.H, s.Guarantee); err != nil {
		return err
	}
	if s.KConnecting > 1 {
		if v := spanner.CheckKConnecting(g.raw(), s.H.raw(), s.KConnecting, s.Guarantee.internal(), nil); v != nil {
			return fmt.Errorf("remspan: k-connecting: %w", error(v))
		}
	}
	return nil
}

// VerifyKConnecting checks the k-connecting (α, β) property over the
// given pairs (nil = all ordered pairs). A stretch that is not well
// formed is a *StretchError; a vertex-count mismatch, k < 1 or a pair
// outside [0, n) is an error.
func VerifyKConnecting(g, h *Graph, k int, st Stretch, pairs [][2]int) error {
	if err := sameVertices("VerifyKConnecting", g, h); err != nil {
		return err
	}
	if !st.internal().WellFormed() {
		return &StretchError{Stretch: st}
	}
	if k < 1 {
		return fmt.Errorf("remspan: k-connecting verification needs k >= 1, got k = %d", k)
	}
	n := g.N()
	for _, p := range pairs {
		if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
			return fmt.Errorf("remspan: pair (%d, %d) outside [0, %d)", p[0], p[1], n)
		}
	}
	if v := spanner.CheckKConnecting(g.raw(), h.raw(), k, st.internal(), pairs); v != nil {
		return fmt.Errorf("remspan: %w", error(v))
	}
	return nil
}

// StretchError reports a stretch verification cannot judge: a
// denominator that is not positive, or α < 0. Every construction's
// guarantee is well formed.
type StretchError struct {
	Stretch Stretch
}

func (e *StretchError) Error() string {
	return fmt.Sprintf("remspan: stretch %v is not well formed (need positive denominators and α ≥ 0)", e.Stretch)
}

// sameVertices rejects a nil g or h, naming it as an argument of fn,
// and a spanner that is not on g's vertex set.
func sameVertices(fn string, g, h *Graph) error {
	if err := cmp.Or(nilArg(fn, "g", g == nil), nilArg(fn, "h", h == nil)); err != nil {
		return err
	}
	if h.N() != g.N() {
		return fmt.Errorf("remspan: spanner has %d vertices, graph has %d", h.N(), g.N())
	}
	return nil
}

// StretchProfile reports the observed stretch of h's augmented views
// over g: the maximum and average of d_{H_u}(u,v)/d_G(u,v).
type StretchProfile struct {
	Pairs       int
	MaxStretch  float64
	AvgStretch  float64
	MaxAdditive int
}

// MeasureStretch computes the observed stretch profile. It runs the
// 64-source word-parallel engine on every graph (h ⊆ g); the result is
// bit-identical to a serial scalar sweep.
func MeasureStretch(g, h *Graph) StretchProfile {
	checkArg(g != nil, "MeasureStretch needs a non-nil g")
	checkArg(h != nil, "MeasureStretch needs a non-nil h")
	p := spanner.MeasureProfile(g.raw(), h.raw())
	return StretchProfile{
		Pairs:       p.Pairs,
		MaxStretch:  p.MaxStretch,
		AvgStretch:  p.AvgStretch,
		MaxAdditive: p.MaxAdd,
	}
}

// DisjointPathDistance returns the paper's k-connecting distance
// d^k(s, t): the minimum total length of k internally vertex-disjoint
// paths (-1 when fewer than k exist).
func DisjointPathDistance(g *Graph, s, t, k int) int {
	checkArg(g != nil, "DisjointPathDistance needs a non-nil g")
	checkVertices(g.N(), s, t)
	return flow.KDistance(g.raw(), s, t, k)
}

// Route simulates greedy link-state forwarding from s to t where every
// node knows its own neighbors plus the advertised spanner h (§1). It
// returns the hop-by-hop path taken.
func Route(g, h *Graph, s, t int) (path []int, ok bool) {
	checkArg(g != nil, "Route needs a non-nil g")
	checkArg(h != nil, "Route needs a non-nil h")
	checkVertices(g.N(), s, t)
	r := routing.GreedyRoute(g.raw(), h.raw(), s, t)
	if !r.OK {
		return nil, false
	}
	out := make([]int, len(r.Path))
	for i, v := range r.Path {
		out[i] = int(v)
	}
	return out, true
}

// MultipathRoutes returns k minimum-total-length internally disjoint
// s→t routes available in s's augmented view of h.
func MultipathRoutes(g, h *Graph, s, t, k int) (paths [][]int, totalLen int, ok bool) {
	checkArg(g != nil, "MultipathRoutes needs a non-nil g")
	checkArg(h != nil, "MultipathRoutes needs a non-nil h")
	checkVertices(g.N(), s, t)
	res, ok, err := routing.DisjointRoutes(g.raw(), h.raw(), s, t, k)
	if err != nil || !ok {
		return nil, 0, false
	}
	paths = make([][]int, len(res.Paths))
	for i, p := range res.Paths {
		paths[i] = make([]int, len(p))
		for j, v := range p {
			paths[i][j] = int(v)
		}
	}
	return paths, res.Total, true
}
