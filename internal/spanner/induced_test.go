package spanner

import (
	"math/rand"
	"slices"
	"testing"

	"remspan/internal/graph"
	"remspan/internal/reference"
)

// The necessity direction of the paper's characterizations: any
// (1+ε, 1−2ε)-remote-spanner must *induce* (⌈1/ε⌉+1, 1)-dominating
// trees (Prop. 1), and any k-connecting (1,0)-remote-spanner must
// induce k-connecting (2,0)-dominating trees (Prop. 5). These
// extractors build the induced tree from H or report that none exists —
// so tests can verify the characterizations as true equivalences, not
// just as soundness of our constructions.

// inducedDominatingTree extracts from h an (r, 1)-dominating tree for u
// whose edges all lie in h, or reports ok=false if h does not contain
// one (then h cannot be a (1+ε', 1−2ε')-remote-spanner with
// ε' = 1/(r−1), by Prop. 1).
//
// Construction: by the Prop. 1 argument, for every v with
// 2 ≤ d_G(u,v) = r' ≤ r there must be x ∈ N_G(v) with d_h(u, x) ≤ r';
// the union of h-BFS paths to those dominators is the tree.
func inducedDominatingTree(g, h *graph.Graph, u, r int) (*graph.Tree, bool) {
	parent, distH := graph.BFSTree(h, u)
	distG := graph.BFS(g, u)
	t := graph.NewTree(g.N(), u)
	for v := 0; v < g.N(); v++ {
		rp := int(distG[v])
		if rp < 2 || rp > r {
			continue
		}
		// Find the dominator of v: a G-neighbor within h-distance r'.
		// (Smallest id for determinism.)
		found := int32(-1)
		for _, x := range g.Neighbors(v) {
			if distH[x] != graph.Unreached && int(distH[x]) <= rp {
				found = x
				break
			}
		}
		if found == -1 {
			return nil, false
		}
		t.AddPath(parent, int(found))
	}
	return t, true
}

// inducedKConnTree extracts from h a k-connecting (2, 0)-dominating
// tree for u (a star of h-edges at u), or ok=false if h lacks one —
// then h is not a k-connecting (1,0)-remote-spanner (Prop. 5).
func inducedKConnTree(g, h *graph.Graph, u, k int) (*graph.Tree, bool) {
	t := graph.NewTree(g.N(), u)
	inTree := func(w int32) bool { return t.Contains(int(w)) }
	addRelay := func(w int32) {
		if !inTree(w) {
			t.Add(int(w), u)
		}
	}
	// Distance-2 vertices of u in G.
	seen := make(map[int32]bool)
	for _, w := range g.Neighbors(u) {
		for _, v := range g.Neighbors(int(w)) {
			if v == int32(u) || g.HasEdge(u, int(v)) || seen[v] {
				continue
			}
			seen[v] = true
			common := g.CommonNeighbors(u, int(v))
			// Relays available in h.
			var avail []int32
			for _, x := range common {
				if h.HasEdge(u, int(x)) {
					avail = append(avail, x)
				}
			}
			need := k
			if len(common) < need {
				need = len(common)
			}
			if len(avail) >= need {
				for i := 0; i < need; i++ {
					addRelay(avail[i])
				}
				continue
			}
			// Escape clause requires ALL common neighbors as h-edges —
			// impossible here since avail ⊊ common.
			return nil, false
		}
	}
	return t, true
}

// checkInduced verifies the necessity direction of Prop. 1 over all
// roots: returns the first root for which h fails to induce an
// (r, 1)-dominating tree, or -1.
func checkInduced(g, h *graph.Graph, r int) int {
	for u := 0; u < g.N(); u++ {
		if _, ok := inducedDominatingTree(g, h, u, r); !ok {
			return u
		}
	}
	return -1
}

// checkInducedKConn verifies the necessity direction of Prop. 5 over
// all roots: returns the first root for which h fails to induce a
// k-connecting (2,0)-dominating tree, or -1.
func checkInducedKConn(g, h *graph.Graph, k int) int {
	for u := 0; u < g.N(); u++ {
		if _, ok := inducedKConnTree(g, h, u, k); !ok {
			return u
		}
	}
	return -1
}

// Prop. 1, necessity: every (1+ε', 1−2ε')-remote-spanner induces
// (r, 1)-dominating trees. Our constructions are remote-spanners, so
// extraction must succeed at every root, and the extracted trees must
// pass the dominating-tree checker.
func TestProp1NecessityOnConstructions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		g := randomConnected(15+rng.Intn(25), 45, rng)
		for _, r := range []int{2, 3} {
			eps := 1.0 / float64(r-1)
			res := LowStretch(g, eps)
			h := res.Graph()
			if bad := checkInduced(g, h, r); bad != -1 {
				t.Fatalf("trial %d r=%d: no induced tree at root %d", trial, r, bad)
			}
			for u := 0; u < g.N(); u += 5 {
				tree, ok := inducedDominatingTree(g, h, u, r)
				if !ok {
					t.Fatalf("extraction failed at %d", u)
				}
				if bad, err := reference.IsDominatingTree(g, tree, r, 1); err != nil || bad != -1 {
					t.Fatalf("extracted tree invalid: bad=%d err=%v", bad, err)
				}
				// Every tree edge must come from h.
				for _, e := range tree.Edges() {
					if !h.HasEdge(int(e[0]), int(e[1])) {
						t.Fatalf("extracted edge {%d,%d} not in h", e[0], e[1])
					}
				}
			}
		}
	}
}

// Prop. 5, necessity: every k-connecting (1,0)-remote-spanner induces
// k-connecting (2,0)-dominating trees.
func TestProp5NecessityOnConstructions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		g := randomConnected(12+rng.Intn(20), 40, rng)
		for k := 1; k <= 3; k++ {
			h := KConnecting(g, k).Graph()
			if bad := checkInducedKConn(g, h, k); bad != -1 {
				t.Fatalf("trial %d k=%d: no induced k-conn tree at root %d", trial, k, bad)
			}
			for u := 0; u < g.N(); u += 4 {
				tree, ok := inducedKConnTree(g, h, u, k)
				if !ok {
					t.Fatalf("extraction failed at %d", u)
				}
				if bad, err := reference.IsKConnDominatingTree(g, tree, k, 0); err != nil || bad != -1 {
					t.Fatalf("extracted tree invalid: bad=%d err=%v", bad, err)
				}
			}
		}
	}
}

// The contrapositive: break the spanner property and extraction must
// fail somewhere.
func TestNecessityDetectsBrokenSpanner(t *testing.T) {
	// Path 0-1-2-3-4: the exact spanner must let 0 reach distance-2
	// vertex 2 via 1. An h missing edge {1,2} both breaks (1,0) and
	// kills the induced tree at root 0.
	g := graph.New(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1)
	}
	h := g.Clone()
	h.RemoveEdge(1, 2)
	if Check(g, h, NewStretch(1, 0)) == nil {
		t.Fatal("broken spanner passed the stretch check")
	}
	if bad := checkInducedKConn(g, h, 1); bad == -1 {
		t.Fatal("necessity checker missed the broken root")
	}
	if bad := checkInduced(g, h, 2); bad == -1 {
		t.Fatal("Prop. 1 necessity checker missed the broken root")
	}
}

// Equivalence smoke test: sufficiency (checker passes ⟹ stretch holds)
// and necessity (stretch holds ⟹ extraction works) on the same
// instances — the characterization is a genuine iff on our samples.
func TestCharacterizationIsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 12; trial++ {
		g := randomConnected(12+rng.Intn(15), 30, rng)
		// Random sub-graph of g as candidate H: keep each edge with
		// probability 0.8 — sometimes a spanner, sometimes not.
		h := graph.New(g.N())
		g.EachEdge(func(u, v int) {
			if rng.Float64() < 0.8 {
				h.AddEdge(u, v)
			}
		})
		isSpanner := Check(g, h, NewStretch(1, 0)) == nil
		induces := checkInducedKConn(g, h, 1) == -1
		if isSpanner != induces {
			t.Fatalf("trial %d: stretch says %v, induced trees say %v", trial, isSpanner, induces)
		}
		if certified := CertifyExact(graph.NewCSR(g), graph.NewCSR(h)); certified != induces {
			t.Fatalf("trial %d: certificate says %v, induced trees say %v", trial, certified, induces)
		}
	}
}

// TestCertifyExactMatchesJudge pins the local certificate against the
// all-pairs judge at (1, 0): it accepts every exact and k-connecting
// construction, and on broken spanners and random subgraphs it accepts
// exactly when JudgeViews finds no deadline miss.
func TestCertifyExactMatchesJudge(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	fams := verifyFamilies()
	verdicts := map[bool]int{}
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		g := fams[name]
		cg := graph.NewCSR(g)
		for _, k := range []int{1, 2, 3} {
			if !CertifyExact(cg, graph.NewCSR(KConnecting(g, k).Graph())) {
				t.Fatalf("%s: certificate rejects KConnecting(%d)", name, k)
			}
		}
		ex := Exact(g).Graph()
		for trial := 0; trial < 6; trial++ {
			frac := 0.02 + 0.1*float64(trial)
			for _, h := range []*graph.Graph{dropEdges(ex, frac, rng), dropEdges(g, frac, rng)} {
				ch := graph.NewCSR(h)
				_, _, _, missed := JudgeViews(cg, ch, NewStretch(1, 0))
				got := CertifyExact(cg, ch)
				if got == missed {
					t.Fatalf("%s trial %d (%d of %d edges): certificate %v, judge miss %v",
						name, trial, h.M(), g.M(), got, missed)
				}
				verdicts[got]++
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("random inputs gave one verdict only: %v", verdicts)
	}
}
