// Package remspan is a Go implementation of remote-spanners from
// "Remote-Spanners: What to Know beyond Neighbors" (Jacquet & Viennot,
// IPPS 2009).
//
// Given an unweighted graph G, a sub-graph H is an (α, β)-remote-spanner
// when, for every node u, the graph H_u — H augmented with all edges
// between u and its G-neighbors — approximates distances from u:
// d_{H_u}(u, v) ≤ α·d_G(u, v) + β. Remote-spanners model the sub-graph a
// link-state routing protocol (OSPF/OLSR) needs to flood network-wide
// given that every router already knows its own neighbors, and they can
// be far sparser than classical spanners: exact-distance
// (1,0)-remote-spanners exist with o(m) edges.
//
// The package offers:
//
//   - constructions: Exact (1,0), KConnecting (k disjoint-path
//     preserving), TwoConnecting ((2,−1) with 2 disjoint paths) and
//     LowStretch ((1+ε, 1−2ε)) remote-spanners, all computable by
//     constant-round distributed algorithms;
//   - exact verification of every guarantee (integer arithmetic, flow
//     based disjoint-path checks);
//   - input generators (random unit-disk/unit-ball graphs, classic
//     families);
//   - a synchronous distributed simulation of the RemSpan protocol;
//   - greedy link-state routing and multipoint-relay flooding built on
//     the spanners.
//
// # Errors and panics
//
//   - A function with an error result reports bad input through it.
//   - A writer batch (ReplicatedRouter.Update) is checked in full
//     before any of it is applied.
//   - An accessor, a function or method that reads or routes between
//     vertices of a graph it already has, panics on a vertex outside
//     [0, n), and only with a message that names the vertex and the
//     range: "remspan: vertex 99 out of range [0, 9)".
//   - A generator or construction without an error result panics on
//     an argument outside its domain (a negative vertex count, k < 1,
//     an edge endpoint outside [0, n)), and only with a "remspan:"
//     message that names the argument: "remspan: Ring needs n >= 0,
//     got n = -3".
//
// See DESIGN.md for the paper-to-code map and EXPERIMENTS.md for the
// reproduced tables and figures.
package remspan

import (
	"fmt"

	"remspan/internal/domtree"
	"remspan/internal/graph"
	"remspan/internal/spanner"
)

// Graph is a simple undirected graph over vertices 0..N-1.
type Graph struct {
	g *graph.Graph
}

// NewGraph returns an empty graph on n vertices. It panics if n is
// negative.
func NewGraph(n int) *Graph {
	checkArg(n >= 0, "NewGraph needs n >= 0, got n = %d", n)
	return &Graph{g: graph.New(n)}
}

// FromEdges builds a graph on n vertices from an edge list; duplicates
// and self loops are ignored. It panics if n is negative or an
// endpoint lies outside [0, n).
func FromEdges(n int, edges [][2]int) *Graph {
	checkArg(n >= 0, "FromEdges needs n >= 0, got n = %d", n)
	for _, e := range edges {
		checkVertices(n, e[0], e[1])
	}
	return &Graph{g: graph.FromEdges(n, edges)}
}

// N returns the vertex count.
func (G *Graph) N() int { return G.g.N() }

// M returns the edge count.
func (G *Graph) M() int { return G.g.M() }

// AddEdge inserts the undirected edge {u, v}, reporting whether it was
// new.
func (G *Graph) AddEdge(u, v int) bool {
	checkVertices(G.N(), u, v)
	return G.g.AddEdge(u, v)
}

// HasEdge reports whether {u, v} is an edge.
func (G *Graph) HasEdge(u, v int) bool {
	checkVertices(G.N(), u, v)
	return G.g.HasEdge(u, v)
}

// Degree returns the degree of u.
func (G *Graph) Degree(u int) int {
	checkVertices(G.N(), u)
	return G.g.Degree(u)
}

// MaxDegree returns the maximum degree.
func (G *Graph) MaxDegree() int { return G.g.MaxDegree() }

// Neighbors returns the sorted neighbors of u.
func (G *Graph) Neighbors(u int) []int {
	checkVertices(G.N(), u)
	nb := G.g.Neighbors(u)
	out := make([]int, len(nb))
	for i, v := range nb {
		out[i] = int(v)
	}
	return out
}

// Edges returns all edges with u < v in lexicographic order.
func (G *Graph) Edges() [][2]int {
	es := G.g.Edges()
	out := make([][2]int, len(es))
	for i, e := range es {
		out[i] = [2]int{int(e[0]), int(e[1])}
	}
	return out
}

// Clone returns an independent copy.
func (G *Graph) Clone() *Graph { return &Graph{g: G.g.Clone()} }

// Distance returns the hop distance between u and v (-1 when
// disconnected).
func (G *Graph) Distance(u, v int) int {
	checkVertices(G.N(), u, v)
	d := graph.BFS(G.g, u)[v]
	return int(d)
}

// Connected reports whether the graph is connected.
func (G *Graph) Connected() bool { return graph.IsConnected(G.g) }

// internal accessor for sibling facade files.
func (G *Graph) raw() *graph.Graph { return G.g }

// wrap converts an internal graph.
func wrap(g *graph.Graph) *Graph { return &Graph{g: g} }

// checkVertices is the accessor check of the package doc: it panics,
// naming the first offender, unless every v lies in [0, n).
// checkArg panics with a "remspan: " message built from format and
// args unless ok: the guard of an argument outside its domain.
func checkArg(ok bool, format string, args ...any) {
	if !ok {
		panic("remspan: " + fmt.Sprintf(format, args...))
	}
}

func checkVertices(n int, vs ...int) {
	for _, v := range vs {
		if v < 0 || v >= n {
			panic(fmt.Sprintf("remspan: vertex %d out of range [0, %d)", v, n))
		}
	}
}

// Stretch is an exact rational stretch bound (α, β) = (AlphaNum/AlphaDen,
// BetaNum/BetaDen).
type Stretch struct {
	AlphaNum, AlphaDen int64
	BetaNum, BetaDen   int64
}

// IntStretch returns the integer stretch (α, β).
func IntStretch(alpha, beta int64) Stretch {
	return Stretch{AlphaNum: alpha, AlphaDen: 1, BetaNum: beta, BetaDen: 1}
}

// String renders the stretch, e.g. "(4/3, 1/3)".
func (s Stretch) String() string { return s.internal().String() }

func (s Stretch) internal() spanner.Stretch {
	return spanner.Stretch{
		AlphaNum: s.AlphaNum, AlphaDen: s.AlphaDen,
		BetaNum: s.BetaNum, BetaDen: s.BetaDen,
	}
}

func fromInternalStretch(s spanner.Stretch) Stretch {
	return Stretch{
		AlphaNum: s.AlphaNum, AlphaDen: s.AlphaDen,
		BetaNum: s.BetaNum, BetaDen: s.BetaDen,
	}
}

// Spanner is a constructed remote-spanner together with its guarantee.
type Spanner struct {
	// H is the spanner sub-graph (same vertex set as the input).
	H *Graph
	// Guarantee is the proven stretch of the construction.
	Guarantee Stretch
	// KConnecting is the largest k for which the k-connecting guarantee
	// holds (1 for plain remote-spanners).
	KConnecting int
	// Kind names the construction.
	Kind string
	// TreeEdges is the per-root dominating-tree size (edges).
	TreeEdges []int
	// Radius is the dominating-tree radius r (flooding radius is
	// r−1+β).
	Radius int
}

// Edges returns the spanner's edge count.
func (s *Spanner) Edges() int { return s.H.M() }

// Exact returns a (1, 0)-remote-spanner of g: every augmented view H_u
// preserves exact distances from u (Prop. 5, k = 1). The construction
// is the union of greedy multipoint-relay selections and is within
// 2(1+log Δ) of the optimal (1,0)-remote-spanner (Th. 2).
func Exact(g *Graph) *Spanner {
	res := spanner.Exact(g.raw())
	return &Spanner{
		H:           wrap(res.Graph()),
		Guarantee:   IntStretch(1, 0),
		KConnecting: 1,
		Kind:        "exact",
		TreeEdges:   res.TreeEdges,
		Radius:      res.R,
	}
}

// KConnecting returns a k-connecting (1, 0)-remote-spanner (Th. 2): for
// every pair and every k' ≤ k, the minimum total length of k' disjoint
// paths is preserved in the augmented views. It panics if k < 1.
func KConnecting(g *Graph, k int) *Spanner {
	checkArg(k >= 1, "KConnecting needs k >= 1, got k = %d", k)
	res := spanner.KConnecting(g.raw(), k)
	return &Spanner{
		H:           wrap(res.Graph()),
		Guarantee:   IntStretch(1, 0),
		KConnecting: k,
		Kind:        fmt.Sprintf("%d-connecting", k),
		TreeEdges:   res.TreeEdges,
		Radius:      res.R,
	}
}

// TwoConnecting returns a 2-connecting (2, −1)-remote-spanner (Th. 3)
// with O(n) edges on unit-ball graphs of doubling metrics.
func TwoConnecting(g *Graph) *Spanner {
	res := spanner.TwoConnecting(g.raw())
	return &Spanner{
		H:           wrap(res.Graph()),
		Guarantee:   IntStretch(2, -1),
		KConnecting: 2,
		Kind:        "2-connecting (2,-1)",
		TreeEdges:   res.TreeEdges,
		Radius:      res.R,
	}
}

// LowStretch returns a (1+ε', 1−2ε')-remote-spanner with
// ε' = 1/⌈1/ε⌉ ≤ ε (Th. 1), with O(ε^{−(p+1)}·n) edges on unit-ball
// graphs of doubling dimension p. An eps outside (0, 1] is an error —
// the same contract RunDistributed applies to AlgoLowStretch (the
// internal builders keep panicking on invalid radii, which after this
// validation can only mean package-internal misuse).
func LowStretch(g *Graph, eps float64) (*Spanner, error) {
	if eps <= 0 || eps > 1 {
		return nil, fmt.Errorf("remspan: need 0 < eps <= 1, got %v", eps)
	}
	res := spanner.LowStretch(g.raw(), eps)
	return &Spanner{
		H:           wrap(res.Graph()),
		Guarantee:   fromInternalStretch(spanner.LowStretchOf(res.R)),
		KConnecting: 1,
		Kind:        fmt.Sprintf("low-stretch r=%d", res.R),
		TreeEdges:   res.TreeEdges,
		Radius:      res.R,
	}, nil
}

// radiusFor resolves ε to the dominating-tree radius r = ⌈1/ε⌉+1 and
// the effective ε' = 1/(r−1).
func radiusFor(eps float64) (int, float64) { return spanner.RadiusFor(eps) }

// DominatingTree computes a single (r, β)-dominating tree for root u
// (Algorithms 1–2; the building block of all constructions) and returns
// its edges as (child, parent) pairs. greedy selects Algorithm 1
// (greedy set cover, β ∈ {0, 1}) over Algorithm 2 (MIS, β = 1).
func DominatingTree(g *Graph, u, r, beta int, greedy bool) ([][2]int, error) {
	if u < 0 || u >= g.N() {
		return nil, fmt.Errorf("remspan: dominating tree root %d outside [0, %d)", u, g.N())
	}
	if r < 2 {
		return nil, fmt.Errorf("remspan: dominating tree radius must be >= 2")
	}
	var t *graph.Tree
	if greedy {
		if beta != 0 && beta != 1 {
			return nil, fmt.Errorf("remspan: greedy dominating trees support beta in {0, 1}")
		}
		t = domtree.GreedyCSR(g.raw(), nil, u, r, beta)
	} else {
		if beta != 1 {
			return nil, fmt.Errorf("remspan: MIS dominating trees have beta = 1")
		}
		t = domtree.MISCSR(g.raw(), nil, u, r)
	}
	es := t.Edges()
	out := make([][2]int, len(es))
	for i, e := range es {
		out[i] = [2]int{int(e[0]), int(e[1])}
	}
	return out, nil
}
