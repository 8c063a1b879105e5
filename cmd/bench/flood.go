package main

import (
	"math"
	"math/rand"
	"time"

	"remspan/internal/distsim"
	"remspan/internal/dynamic"
	"remspan/internal/mobility"
	"remspan/internal/spanner"
)

// flood-50k: the distributed RemSpan protocol at scale, with no
// tables (a table set is n² per replica). Closed loop: mobility diff,
// then Engine.Reflood.
func floodParams(smoke bool) params {
	p := params{N: 50000, Degree: 8, MinSpeed: 0.01, MaxSpeed: 0.05, Warm: 3}
	if smoke {
		p.N, p.Warm = 500, 1
	}
	return p
}

type flood struct {
	tr  *mobility.Tracker
	e   *distsim.Engine
	buf []dynamic.Change
	sm  *dynamic.Maintainer // traced run: shadow replay of every batch

	ticks    int
	diffs    int64
	applied  int64
	busy     time.Duration
	words    int64
	dirty    int64
	refloods int64
	trees    int64
	alloc    float64
	lat      []float64 // tick latencies, ms
}

func newFlood(r *run, parent int) *flood {
	p := r.p
	side := math.Sqrt(math.Pi * float64(p.N) / p.Degree)
	t0 := time.Now()
	w := mobility.NewWaypoint(p.N, side, p.MinSpeed, p.MaxSpeed, rand.New(rand.NewSource(r.seed)))
	tr := mobility.NewTracker(w, 1)
	t1 := time.Now()
	b := dynamic.Builders()[0]
	e := distsim.NewEngine(tr.Graph(), b.Radius, distsim.TreeBuilder(b.Build))
	t2 := time.Now()
	e.Run()
	t3 := time.Now()
	r.tr.add("mobility.new_tracker", 0, t0, t1, parent, false)
	r.tr.add("distsim.new_engine", 0, t1, t2, parent, false)
	r.tr.add("distsim.cold_run", 0, t2, t3, parent, false)
	return &flood{tr: tr, e: e, lat: make([]float64, 0, 1<<12)}
}

func (f *flood) resetStats() {
	*f = flood{tr: f.tr, e: f.e, buf: f.buf, sm: f.sm, lat: f.lat[:0]}
}

// tick runs one update from the topology diff until the re-flood has
// settled; k < 0 marks an unrecorded warm-up tick.
func (f *flood) tick(r *run, k int) {
	start := time.Now()
	f.buf = diff(f.tr, f.buf)
	t1 := time.Now()
	a0 := r.tr.allocMB()
	t2 := time.Now()
	st := f.e.Reflood(f.buf)
	end := time.Now()
	a1 := r.tr.allocMB()
	r.check(st.Lost == 0, "tick %d: lossless re-flood lost %d roots", k, st.Lost)

	tick := -1
	if k >= 0 {
		f.ticks++
		f.diffs += int64(len(f.buf))
		f.applied += int64(st.Applied)
		f.busy += end.Sub(start)
		f.words += st.Words
		f.dirty += int64(st.DirtyRoots)
		f.refloods += int64(st.Refloods)
		f.alloc += a1 - a0
		f.lat = append(f.lat, ms(end.Sub(start)))
		tick = r.tr.add("tick", k, start, end, -1, false)
		r.tr.add("mobility.tick", k, start, t1, tick, false)
		r.tr.add("distsim.reflood", k, t2, end, tick, false)
	}
	if f.sm == nil {
		return
	}
	trees := f.sm.TreesRebuilt()
	s0 := time.Now()
	applied := f.sm.ApplyBatch(f.buf)
	s1 := time.Now()
	r.check(applied == st.Applied && (applied == 0 || len(f.sm.DirtyRoots()) == st.DirtyRoots),
		"tick %d: shadow maintainer disagrees with the engine on the batch", k)
	if k >= 0 {
		f.trees += f.sm.TreesRebuilt() - trees
		r.tr.add("dynamic.apply_batch", k, s0, s1, tick, true)
	}
}

func runFlood(r *run) {
	build := func(parent int) *flood { return newFlood(r, parent) }
	f, _ := setup(r, build)
	r.e2e["spanner_edges"] = float64(f.e.Spanner().Len())
	if r.tr.on {
		b := dynamic.Builders()[0]
		f.sm = dynamic.New(f.tr.Graph(), b.Radius, b.Build)
	}
	for i := 0; i < r.p.Warm; i++ {
		f.tick(r, -1)
	}
	ops := make(map[int]int)
	var measured time.Duration
	k := 0
	r.eachArm(func(cpu int) {
		if len(r.arms) > 1 {
			f.tick(r, -1)
		}
		f.resetStats()
		armStart := time.Now()
		for time.Since(armStart) < r.budget {
			f.tick(r, k)
			k++
		}
		measured += time.Since(armStart)
		ops[cpu] = f.ticks
	})
	r.heapLive()
	timeSetups(r, build)

	ticks := float64(f.ticks)
	r.e2e["update_p50_ms"] = quantile(f.lat, 0.5)
	r.e2e["update_p90_ms"] = quantile(f.lat, 0.9)
	r.e2e["updates_per_s"] = ticks / f.busy.Seconds()
	r.e2e["words_per_update"] = ratio(float64(f.words), ticks)

	l := r.layer
	l["mobility.changes_per_tick"] = ratio(float64(f.diffs), ticks)
	l["dynamic.trees_rebuilt_per_tick"] = ratio(float64(f.trees), ticks)
	l["distsim.dirty_roots_per_tick"] = ratio(float64(f.dirty), ticks)
	l["distsim.refloods_per_tick"] = ratio(float64(f.refloods), ticks)
	l["distsim.reflood_frac"] = ratio(float64(f.refloods), float64(f.dirty))
	l["distsim.alloc_mb_per_tick"] = ratio(f.alloc, ticks)
	r.stageShare("mobility.tick_share", "tick", "mobility.tick")
	r.stageShare("distsim.reflood_share", "tick", "distsim.reflood")
	r.stageShare("dynamic.apply_batch_share", "tick", "dynamic.apply_batch")
	r.setupShare("distsim.cold_run_setup_share", "distsim.cold_run")
	r.speedup("mobility.speedup_2v1", ops, "mobility.tick")
	r.speedup("distsim.speedup_2v1", ops, "distsim.reflood")
	r.speedup("dynamic.speedup_2v1", ops, "dynamic.apply_batch")
	r.finishTrace("tick", measured)

	live := f.e.Spanner()
	r.check(live.Equal(spanner.Exact(f.e.Graph()).H), "final: engine spanner differs from spanner.Exact of the final graph")
	if f.sm != nil {
		r.check(f.sm.Spanner().Equal(live), "final: shadow maintainer spanner differs from the engine's")
	}
}
