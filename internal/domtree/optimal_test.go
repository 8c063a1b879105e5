package domtree

import (
	"math"
	"math/rand"
	"testing"

	"remspan/internal/graph"
	"remspan/internal/reference"
)

// bruteKCoverSize finds the exact optimum by enumerating all subsets of
// N(u) — ground truth for the branch & bound.
func bruteKCoverSize(g *graph.Graph, u, k int) int {
	nu := g.Neighbors(u)
	if len(nu) > 20 {
		panic("too large for brute force")
	}
	// Distance-2 vertices.
	var s2 []int32
	seen := map[int32]bool{}
	for _, w := range nu {
		for _, v := range g.Neighbors(int(w)) {
			if v != int32(u) && !g.HasEdge(u, int(v)) && !seen[v] {
				seen[v] = true
				s2 = append(s2, v)
			}
		}
	}
	best := len(nu) + 1
	for mask := 0; mask < 1<<len(nu); mask++ {
		cnt := 0
		for i := range nu {
			if mask&(1<<i) != 0 {
				cnt++
			}
		}
		if cnt >= best {
			continue
		}
		ok := true
		for _, v := range s2 {
			hits, common := 0, 0
			for i, w := range nu {
				if g.HasEdge(int(w), int(v)) {
					common++
					if mask&(1<<i) != 0 {
						hits++
					}
				}
			}
			need := k
			if common < need {
				need = common
			}
			if hits < need {
				ok = false
				break
			}
		}
		if ok {
			best = cnt
		}
	}
	return best
}

func TestOptimalKCoverMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 40; trial++ {
		g := randomConnected(8+rng.Intn(8), 12, rng)
		u := rng.Intn(g.N())
		if g.Degree(u) > 14 {
			continue
		}
		for k := 1; k <= 2; k++ {
			want := bruteKCoverSize(g, u, k)
			got, ok := OptimalKCoverSize(g, u, k, 1<<22)
			if !ok {
				t.Fatalf("trial %d: budget exhausted", trial)
			}
			if got != want {
				t.Fatalf("trial %d u=%d k=%d: b&b=%d brute=%d", trial, u, k, got, want)
			}
		}
	}
}

func TestGreedyWithinLogBoundOfOptimal(t *testing.T) {
	// Prop. 6: greedy k-cover within 1+log Δ of optimal.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		g := randomConnected(10+rng.Intn(15), 25, rng)
		u := rng.Intn(g.N())
		for k := 1; k <= 2; k++ {
			greedy := KGreedyCSR(g, nil, u, k).EdgeCount()
			opt, ok := OptimalKCoverSize(g, u, k, 1<<22)
			if !ok {
				continue
			}
			if opt == 0 {
				if greedy != 0 {
					t.Fatalf("opt=0 but greedy=%d", greedy)
				}
				continue
			}
			bound := (1 + math.Log(float64(g.MaxDegree()))) * float64(opt)
			if float64(greedy) > bound+1e-9 {
				t.Fatalf("trial %d u=%d k=%d: greedy %d > (1+lnΔ)·opt = %.2f",
					trial, u, k, greedy, bound)
			}
		}
	}
}

func TestOptimalDomTreeLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 15; trial++ {
		g := randomConnected(12+rng.Intn(12), 20, rng)
		u := rng.Intn(g.N())
		for _, beta := range []int{0, 1} {
			r := 3
			lb, _ := OptimalDomTreeLowerBound(g, u, r, beta, 1<<20)
			tr := GreedyCSR(g, nil, u, r, beta)
			if tr.EdgeCount() < lb {
				t.Fatalf("trial %d: greedy tree %d edges below lower bound %d",
					trial, tr.EdgeCount(), lb)
			}
		}
	}
}

func TestExactMultiCoverEdgeCases(t *testing.T) {
	// Empty instance.
	if got, ok := exactMultiCover(coverInstance{}, 1, 1000); !ok || got != 0 {
		t.Fatalf("empty instance: got=%d ok=%v", got, ok)
	}
	// Single element, single candidate.
	inst := coverInstance{req: []int{1}, covers: [][]int32{{0}}}
	if got, ok := exactMultiCover(inst, 2, 1000); !ok || got != 1 {
		t.Fatalf("got=%d ok=%v", got, ok)
	}
	// Infeasible demand.
	inst2 := coverInstance{req: []int{2}, covers: [][]int32{{0}}}
	if _, ok := exactMultiCover(inst2, 2, 1000); ok {
		t.Fatal("infeasible instance should fail")
	}
}

func TestOptimalKCoverOnStar(t *testing.T) {
	// Star: no distance-2 vertices, optimal cover is 0.
	g := reference.Star(6)
	got, ok := OptimalKCoverSize(g, 0, 2, 1000)
	if !ok || got != 0 {
		t.Fatalf("star center: got=%d ok=%v", got, ok)
	}
	// Leaf of star: distance-2 vertices are the other leaves, all
	// covered only via the center.
	got2, ok2 := OptimalKCoverSize(g, 1, 3, 1000)
	if !ok2 || got2 != 1 {
		t.Fatalf("star leaf: got=%d ok=%v", got2, ok2)
	}
}
