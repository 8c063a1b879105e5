package distsim

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// widthRun is what one GOMAXPROCS arm of the engine width test
// records: the full run, every tick's stats, and every final tree.
type widthRun struct {
	res   *Result
	ticks []TickStats
	trees [][][2]int32
}

// TestEngineWidthDeterminism pins the engine at GOMAXPROCS 1, 2 and 7:
// a full simulated run and a sequence of reflood ticks produce
// identical traffic accounting, spanners and trees at every width. The
// maintainer's full build and every compared tick rebuild at least the
// 32-root serial threshold, so above one proc the sharded rebuild is
// what runs.
func TestEngineWidthDeterminism(t *testing.T) {
	for fam, g := range testFamilies(120, 31) {
		for _, p := range enginePairs() {
			var ref *widthRun
			for _, procs := range []int{1, 2, 7} {
				run := func() *widthRun {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					e := NewEngine(g, p.radius, p.build)
					r := &widthRun{res: e.Run()}
					// Churn ticks: identical change batches must reflood
					// the same words at every width.
					rng := rand.New(rand.NewSource(32))
					for tick := 0; tick < 4; tick++ {
						st := e.Reflood(randomBatch(e, rng, 24))
						if st.DirtyRoots < 32 {
							t.Fatalf("%s/%s tick %d: %d dirty roots is below the serial threshold",
								fam, p.name, tick, st.DirtyRoots)
						}
						r.ticks = append(r.ticks, st)
					}
					for u := 0; u < g.N(); u++ {
						r.trees = append(r.trees, slices.Clone(e.m.TreeOf(u)))
					}
					return r
				}()
				if ref == nil {
					ref = run
					continue
				}
				res, want := run.res, ref.res
				if res.Rounds != want.Rounds || res.Messages != want.Messages || res.Words != want.Words {
					t.Fatalf("%s/%s GOMAXPROCS=%d: traffic (%d,%d,%d) differs from GOMAXPROCS=1 (%d,%d,%d)",
						fam, p.name, procs, res.Rounds, res.Messages, res.Words,
						want.Rounds, want.Messages, want.Words)
				}
				if !edgeSetsEqual(res.H, want.H) || !slices.Equal(res.TreeEdges, want.TreeEdges) {
					t.Fatalf("%s/%s GOMAXPROCS=%d: spanner differs from GOMAXPROCS=1", fam, p.name, procs)
				}
				if !slices.Equal(run.ticks, ref.ticks) {
					t.Fatalf("%s/%s GOMAXPROCS=%d: tick stats %+v differ from GOMAXPROCS=1 %+v",
						fam, p.name, procs, run.ticks, ref.ticks)
				}
				for u := range ref.trees {
					if !slices.Equal(run.trees[u], ref.trees[u]) {
						t.Fatalf("%s/%s GOMAXPROCS=%d: tree of %d differs from GOMAXPROCS=1", fam, p.name, procs, u)
					}
				}
			}
		}
	}
}
