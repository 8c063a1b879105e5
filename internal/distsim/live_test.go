package distsim

import (
	"testing"

	"remspan/internal/dynamic"
	"remspan/internal/spanner"
)

// TestLiveRunPinnedToMaintainer is the acceptance pin of the live
// driver: every mobility tick's spanner must be bit-identical to
// dynamic.Maintainer ground truth fed the same change stream, and in
// particular remain a valid (1,0)-remote-spanner of the live topology.
func TestLiveRunPinnedToMaintainer(t *testing.T) {
	cfg := LiveConfig{
		N: 300, Degree: 8,
		MinSpeed: 0.02, MaxSpeed: 0.12,
		Ticks: 25, Seed: 5,
		Radius: 1, Build: kgreedyCSR(1),
	}
	var m *dynamic.Maintainer
	checked := 0
	rep, err := LiveRun(cfg, func(tick int, changes []dynamic.Change, e *Engine) {
		if m == nil {
			// Ground truth starts from the engine's initial topology:
			// rewind the tick's changes to recover it.
			g := e.Graph()
			undo(g, changes)
			m = dynamic.New(g, cfg.Radius, dynamic.TreeBuilder(cfg.Build))
		}
		m.ApplyBatch(changes)
		if !edgeSetsEqual(e.Spanner(), m.Spanner()) {
			t.Fatalf("tick %d: live spanner diverged from maintainer ground truth", tick)
		}
		if tick%8 == 0 {
			h := e.Spanner().Graph()
			if v := spanner.Check(e.Graph(), h, spanner.NewStretch(1, 0)); v != nil {
				t.Fatalf("tick %d: live spanner violates (1,0): %v", tick, v)
			}
		}
		checked++
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked != cfg.Ticks {
		t.Fatalf("observed %d ticks, want %d", checked, cfg.Ticks)
	}
	if rep.Changes == 0 {
		t.Fatal("mobility produced no topology changes — vacuous run")
	}
	if rep.Words == 0 || rep.FullWords == 0 {
		t.Fatalf("no re-advertisement traffic recorded: %+v", rep)
	}
	if rep.Words >= rep.FullWords {
		t.Fatalf("incremental re-advertisement (%d words) not below full link-state re-flood (%d)",
			rep.Words, rep.FullWords)
	}
	if rep.Refloods > rep.DirtyRoots {
		t.Fatalf("refloods %d exceed dirty roots %d", rep.Refloods, rep.DirtyRoots)
	}
}

// undo reverses a change batch on g (the batches LiveRun emits contain
// only edge adds/removes, each effective exactly once).
func undo(g interface {
	AddEdge(u, v int) bool
	RemoveEdge(u, v int) bool
}, changes []dynamic.Change) {
	for i := len(changes) - 1; i >= 0; i-- {
		ch := changes[i]
		switch ch.Kind {
		case dynamic.AddEdge:
			g.RemoveEdge(ch.U, ch.V)
		case dynamic.RemoveEdge:
			g.AddEdge(ch.U, ch.V)
		}
	}
}

// TestLiveRunDeterministic: same config, same report.
func TestLiveRunDeterministic(t *testing.T) {
	cfg := LiveConfig{
		N: 150, Degree: 7,
		MinSpeed: 0.02, MaxSpeed: 0.1,
		Ticks: 10, Seed: 9,
		Radius: 2, Build: kmisCSR(2),
	}
	a, errA := LiveRun(cfg, nil)
	b, errB := LiveRun(cfg, nil)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if a.Changes != b.Changes || a.Words != b.Words || a.DirtyRoots != b.DirtyRoots ||
		a.Refloods != b.Refloods || a.FullWords != b.FullWords {
		t.Fatalf("live runs diverged: %+v vs %+v", a, b)
	}
}

// TestLiveRunConfigErrors: every invalid config is rejected with a
// typed *ConfigError naming the offending field — never a panic.
func TestLiveRunConfigErrors(t *testing.T) {
	valid := LiveConfig{
		N: 50, Degree: 8, MinSpeed: 0.01, MaxSpeed: 0.05,
		Ticks: 1, Seed: 1, Radius: 1, Build: kgreedyCSR(1),
	}
	cases := []struct {
		field  string
		mutate func(*LiveConfig)
	}{
		{"N", func(c *LiveConfig) { c.N = 1 }},
		{"Degree", func(c *LiveConfig) { c.Degree = 0 }},
		{"Ticks", func(c *LiveConfig) { c.Ticks = -1 }},
		{"MinSpeed", func(c *LiveConfig) { c.MinSpeed = -0.1 }},
		{"MaxSpeed", func(c *LiveConfig) { c.MaxSpeed = c.MinSpeed / 2 }},
		{"Radius", func(c *LiveConfig) { c.Radius = 0 }},
		{"Build", func(c *LiveConfig) { c.Build = nil }},
	}
	for _, tc := range cases {
		cfg := valid
		tc.mutate(&cfg)
		rep, err := LiveRun(cfg, nil)
		if rep != nil || err == nil {
			t.Fatalf("%s: expected rejection, got rep=%v err=%v", tc.field, rep, err)
		}
		var ce *ConfigError
		if !errorsAs(err, &ce) {
			t.Fatalf("%s: error %v is not a *ConfigError", tc.field, err)
		}
		if ce.Field != tc.field {
			t.Fatalf("error blames field %q, want %q (%v)", ce.Field, tc.field, err)
		}
		if ce.Error() == "" || ce.Reason == "" {
			t.Fatalf("%s: undescriptive error %+v", tc.field, ce)
		}
	}
	if _, err := LiveRun(valid, nil); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// errorsAs avoids importing errors just for the assertion above.
func errorsAs(err error, target **ConfigError) bool {
	ce, ok := err.(*ConfigError)
	if ok {
		*target = ce
	}
	return ok
}
