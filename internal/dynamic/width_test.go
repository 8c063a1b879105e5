package dynamic

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"remspan/internal/gen"
)

// treesOf copies every stored tree of m.
func treesOf(m *Maintainer) [][][2]int32 {
	out := make([][][2]int32, m.View().N())
	for u := range out {
		out[u] = slices.Clone(m.TreeOf(u))
	}
	return out
}

// widthRun is what one GOMAXPROCS arm of the width test records: every
// tree after New and after each round, each round's changed roots, and
// the final rebuild count.
type widthRun struct {
	trees   [][][][2]int32
	changed [][]int32
	rebuilt int64
}

// TestRebuildDirtyWidthDeterminism pins the sharded rebuild: the
// initial build of New and identical change streams applied at
// GOMAXPROCS 1, 2 and 7 leave bit-identical per-root trees, changed-
// root lists and rebuild counts. New's n=120 roots and every compared
// batch's dirty union reach the 32-root serial threshold, so above one
// proc the shard scheduler — not the serial loop — is what runs.
func TestRebuildDirtyWidthDeterminism(t *testing.T) {
	const n, rounds = 120, 6
	for _, bb := range Builders() {
		rng := rand.New(rand.NewSource(61))
		g := gen.RandomTree(n, rng)
		for i := 0; i < 260; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}

		var ref *widthRun
		for _, procs := range []int{1, 2, 7} {
			run := func() *widthRun {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				m := New(g, bb.Radius, bb.Build)
				r := &widthRun{trees: [][][][2]int32{treesOf(m)}}
				crng := rand.New(rand.NewSource(62))
				for round := 0; round < rounds; round++ {
					m.Apply(churnBatch(m, crng, 24))
					if d := len(m.DirtyRoots()); d < 32 {
						t.Fatalf("%s round %d: dirty union of %d roots is below the serial threshold", bb.Name, round, d)
					}
					r.changed = append(r.changed, slices.Clone(m.Rebuild(m.DirtyRoots())))
					r.trees = append(r.trees, treesOf(m))
				}
				r.rebuilt = m.TreesRebuilt()
				return r
			}()
			if ref == nil {
				ref = run
				continue
			}
			for step := range ref.trees {
				for u := range ref.trees[step] {
					if !slices.Equal(ref.trees[step][u], run.trees[step][u]) {
						t.Fatalf("%s GOMAXPROCS=%d step %d: tree of %d differs from GOMAXPROCS=1",
							bb.Name, procs, step, u)
					}
				}
			}
			for round := range ref.changed {
				if !slices.Equal(ref.changed[round], run.changed[round]) {
					t.Fatalf("%s GOMAXPROCS=%d round %d: changed roots differ from GOMAXPROCS=1",
						bb.Name, procs, round)
				}
			}
			if run.rebuilt != ref.rebuilt {
				t.Fatalf("%s GOMAXPROCS=%d: %d trees rebuilt, %d at GOMAXPROCS=1",
					bb.Name, procs, run.rebuilt, ref.rebuilt)
			}
		}
	}
}
