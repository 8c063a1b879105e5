package remspan

import (
	"math/rand"
	"testing"
)

// TestReplicatedRouterBasic drives the public replicated tier through
// churn on a perfect transport: replicas stay in lockstep with the
// writer, every query is typed, and delivered paths are real walks in
// the current graph ending at the target.
func TestReplicatedRouterBasic(t *testing.T) {
	g := RandomUDG(150, 4, 7)
	rr, err := NewReplicatedRouter(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReplicatedRouter(g, 0); err == nil {
		t.Fatal("zero replicas accepted")
	}

	rng := rand.New(rand.NewSource(9))
	cur := g.Clone()
	for round := 0; round < 8; round++ {
		var added, removed [][2]int
		for k := 0; k < 5; k++ {
			u, v := rng.Intn(cur.N()), rng.Intn(cur.N())
			if u == v {
				continue
			}
			if cur.HasEdge(u, v) {
				removed = append(removed, [2]int{u, v})
			} else {
				added = append(added, [2]int{u, v})
			}
		}
		rr.Update(added, removed)
		for _, e := range removed {
			cur.raw().RemoveEdge(e[0], e[1])
		}
		for _, e := range added {
			cur.AddEdge(e[0], e[1])
		}
		if rr.MaxLag() != 0 {
			t.Fatalf("round %d: replicas lag %d on a perfect transport", round, rr.MaxLag())
		}
		for q := 0; q < 30; q++ {
			s, d := rng.Intn(cur.N()), rng.Intn(cur.N())
			path, reason, lag, ok := rr.Route(s, d)
			if lag != 0 {
				t.Fatalf("round %d: query served at lag %d on a perfect transport", round, lag)
			}
			if !ok {
				if reason != "unreachable" && reason != "stale-link" && reason != "trapped" {
					t.Fatalf("round %d: untyped failure %q", round, reason)
				}
				continue
			}
			if reason != "delivered" {
				t.Fatalf("round %d: delivered route with reason %q", round, reason)
			}
			if len(path) == 0 || path[0] != s || path[len(path)-1] != d {
				t.Fatalf("round %d: bad path %v for %d→%d", round, path, s, d)
			}
			for i := 1; i < len(path); i++ {
				if !cur.HasEdge(path[i-1], path[i]) {
					t.Fatalf("round %d: path hop %d–%d not an edge", round, path[i-1], path[i])
				}
			}
		}
	}
	if rr.Epoch() < 2 {
		t.Fatalf("writer never published past bootstrap: epoch %d", rr.Epoch())
	}
}

// TestReplicatedRouterUpdateCountsApplied: Update returns the number
// of changes that had an effect, not the number submitted — adding an
// existing edge and removing an absent one applies nothing.
func TestReplicatedRouterUpdateCountsApplied(t *testing.T) {
	g := RandomUDG(60, 3, 5)
	rr, err := NewReplicatedRouter(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	u := 0
	for g.Degree(u) == 0 {
		u++
	}
	present := [2]int{u, g.Neighbors(u)[0]}
	absent := [2]int{u, (u + 1) % g.N()}
	for g.HasEdge(absent[0], absent[1]) || absent[1] == u {
		absent[1] = (absent[1] + 1) % g.N()
	}
	if got := rr.Update([][2]int{present}, [][2]int{absent}); got != 0 {
		t.Fatalf("no-op update reported %d applied changes", got)
	}
	if got := rr.Update(nil, [][2]int{present}); got != 1 {
		t.Fatalf("removing an existing edge reported %d applied changes, want 1", got)
	}
}
