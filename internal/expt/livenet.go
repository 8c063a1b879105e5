package expt

import (
	"fmt"

	"remspan/internal/distsim"
	"remspan/internal/domtree"
	"remspan/internal/dynamic"
	"remspan/internal/graph"
	"remspan/internal/spanner"
	"remspan/internal/stats"
)

// LiveNetwork reproduces the paper's §2.3 live-operation remark at the
// protocol-simulation level (DESIGN.md §3d): a random-waypoint fleet
// moves every tick, the unit-disk topology diff feeds the distributed
// engine, and only the dirty roots — the radius-R balls around the
// changed endpoints — recompute and re-flood their trees. The
// experiment reports the incremental re-advertisement cost against the
// OSPF-style full link-state re-flood of the same change stream. Its
// verdicts judge the engine against its own copy of G, patched with
// every tick's changes: the engine's graph equals the copy, every
// tick's spanner is bit-identical to a fresh dynamic.Maintainer over
// the copy, and the sampled spanners satisfy (1,0) on it.
func LiveNetwork(cfg Config) (*stats.Table, error) {
	n, ticks := 500, 60
	if cfg.Quick {
		n, ticks = 200, 25
	}
	build := func(c graph.View, s *domtree.Scratch, u int) *graph.Tree {
		return domtree.KGreedyCSR(c, s, u, 1)
	}
	live := distsim.LiveConfig{
		N: n, Degree: 8,
		MinSpeed: 0.01, MaxSpeed: 0.08,
		Ticks: ticks, Seed: cfg.Seed + 1800,
		Radius: 1, Build: build,
	}

	// The engine is judged against this copy of G, which every tick's
	// changes patch too; the expected spanner and the (1,0) sample read
	// the copy, never the engine's own graph.
	var want *graph.Graph
	pinned, sameGraph, valid := true, true, true
	rep, err := distsim.LiveRun(live, func(tick int, changes []dynamic.Change, e *distsim.Engine) {
		if want == nil {
			// The copy starts from the post-first-tick topology; from
			// here on it sees the engine's change stream.
			want = e.Graph()
			return
		}
		for _, c := range changes {
			if c.Kind == dynamic.AddEdge {
				want.AddEdge(c.U, c.V)
			} else {
				want.RemoveEdge(c.U, c.V)
			}
		}
		if !graph.NewEdgeSet(want.N(), e.Graph().Edges()).Equal(graph.NewEdgeSet(want.N(), want.Edges())) {
			sameGraph = false
		}
		es := e.Spanner()
		if !es.Equal(dynamic.New(want, live.Radius, dynamic.TreeBuilder(build)).Spanner()) {
			pinned = false
		}
		if tick%10 == 0 {
			if v := spanner.Check(want, es.Graph(), spanner.NewStretch(1, 0)); v != nil {
				valid = false
			}
		}
	})
	if err != nil {
		return nil, err
	}

	t := stats.NewTable("Live-network distributed RemSpan: mobility-driven incremental re-advertisement",
		"metric", "value", "verdict")
	t.AddRow("nodes / ticks", fmt.Sprintf("%d / %d", n, ticks), "PASS")
	t.AddRow("cold-start advertisement words", rep.Initial.Words, "PASS")
	t.AddRow("topology changes applied", rep.Changes, verdict(rep.Changes > 0))
	perTick := float64(rep.Changes) / float64(ticks)
	t.AddRow("changes per tick (avg)", perTick, "PASS")
	t.AddRow("dirty roots per tick (avg)", float64(rep.DirtyRoots)/float64(ticks),
		verdict(rep.DirtyRoots < int64(n*ticks)))
	t.AddRow("tree refloods per tick (avg)", float64(rep.Refloods)/float64(ticks),
		verdict(rep.Refloods <= rep.DirtyRoots))
	t.AddRow("incremental words per tick (avg)", float64(rep.Words)/float64(ticks), "PASS")
	t.AddRow("full link-state words per tick (avg)", float64(rep.FullWords)/float64(ticks), "PASS")
	saving := "—"
	if rep.Words > 0 {
		saving = ratioStr(rep.Words, rep.FullWords)
	}
	t.AddRow("re-advertisement saving vs full LS", saving, verdict(rep.Words < rep.FullWords))
	t.AddRow("engine graph equals the patched copy", sameGraph, verdict(sameGraph))
	t.AddRow("every tick pinned to dynamic.Maintainer", pinned, verdict(pinned))
	t.AddRow("sampled spanners satisfy (1,0)", valid, verdict(valid))
	t.AddNote("random waypoint on √(πn/8)-side square, unit disk radius 1, speeds [%.2f, %.2f]/tick",
		live.MinSpeed, live.MaxSpeed)
	t.AddNote("dirty-root rule: radius-R dirty balls of dynamic.Maintainer.Apply; only changed trees re-flood")
	return t, nil
}
