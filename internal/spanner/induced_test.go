package spanner

import (
	"math/rand"
	"testing"

	"remspan/internal/graph"
	"remspan/internal/reference"
)

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
			if bad := CheckInduced(g, h, r); bad != -1 {
				t.Fatalf("trial %d r=%d: no induced tree at root %d", trial, r, bad)
			}
			for u := 0; u < g.N(); u += 5 {
				tree, ok := InducedDominatingTree(g, h, u, r)
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
			if bad := CheckInducedKConn(g, h, k); bad != -1 {
				t.Fatalf("trial %d k=%d: no induced k-conn tree at root %d", trial, k, bad)
			}
			for u := 0; u < g.N(); u += 4 {
				tree, ok := InducedKConnTree(g, h, u, k)
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
	if bad := CheckInducedKConn(g, h, 1); bad == -1 {
		t.Fatal("necessity checker missed the broken root")
	}
	if bad := CheckInduced(g, h, 2); bad == -1 {
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
		induces := CheckInducedKConn(g, h, 1) == -1
		if isSpanner != induces {
			t.Fatalf("trial %d: stretch says %v, induced trees say %v", trial, isSpanner, induces)
		}
	}
}
