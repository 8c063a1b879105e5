package main

import (
	"math"
	"math/rand"
	"time"

	"remspan/internal/distsim"
	"remspan/internal/dynamic"
	"remspan/internal/geom"
	"remspan/internal/graph"
	"remspan/internal/spanner"
)

// static-build: batch construction plus certification. Each round
// builds the four spanners of one constant-degree UDG, runs the
// distributed protocol on it (whose flooded words are the round's
// words) with one engine built at set-up, and certifies the exact spanner of a smaller UDG with the
// bit-parallel verifier. The live workloads bypass all of this. At
// n=100k a round takes ≈3 s on 2 cores, so a run holds ≥7 rounds; at
// 200k it held 4 and kept 360 MB live.
func staticParams(smoke bool) params {
	p := params{N: 100000, Degree: 8, CheckN: 10000, Warm: 1}
	if smoke {
		p.N, p.CheckN = 2000, 300
	}
	return p
}

// udg returns the largest component of a Poisson unit-disk graph with
// about n nodes and the given mean degree.
func udg(n int, degree float64, seed int64) *graph.Graph {
	side := math.Sqrt(math.Pi * float64(n) / degree)
	rng := rand.New(rand.NewSource(seed))
	g := geom.UnitDiskGraph(geom.PoissonSquare(float64(n)/(side*side), side, rng), 1)
	keep, _ := graph.LargestComponent(g)
	return g.InducedSubgraph(keep)
}

type static struct {
	g      *graph.Graph // construction input
	e      *distsim.Engine
	gc, hc *graph.Graph // certification input and its exact spanner
}

var staticStages = [...]string{"spanner.exact", "spanner.kconn3", "spanner.twoconn", "spanner.lowstretch", "distsim.run", "spanner.check"}

func runStatic(r *run) {
	build := func(parent int) *static {
		t0 := time.Now()
		g := udg(r.p.N, r.p.Degree, r.seed)
		gc := udg(r.p.CheckN, r.p.Degree, r.seed+1)
		t1 := time.Now()
		hc := spanner.Exact(gc).Graph()
		t2 := time.Now()
		// One engine per run, re-run every round: an engine that has run
		// a parallel fan-out is never collected, so one per round would
		// grow the heap by ~25 MB a round.
		b := dynamic.Builders()[0]
		e := distsim.NewEngine(g, b.Radius, distsim.TreeBuilder(b.Build))
		t3 := time.Now()
		r.tr.add("gen.udg", 0, t0, t1, parent, false)
		r.tr.add("spanner.exact_check_input", 0, t1, t2, parent, false)
		r.tr.add("distsim.new_engine", 0, t2, t3, parent, false)
		return &static{g: g, e: e, gc: gc, hc: hc}
	}
	s, _ := setup(r, build)
	var rounds int
	var busy time.Duration
	var words int64
	var alloc float64
	lat := make([]float64, 0, 1<<10) // round latencies, ms

	// round runs one construction-and-certification round; k < 0 marks
	// an unrecorded warm-up round.
	round := func(k int) {
		a0 := r.tr.allocMB()
		var t [len(staticStages) + 1]time.Time
		t[0] = time.Now()
		ex := spanner.Exact(s.g)
		t[1] = time.Now()
		spanner.KConnecting(s.g, 3)
		t[2] = time.Now()
		spanner.TwoConnecting(s.g)
		t[3] = time.Now()
		spanner.LowStretch(s.g, 0.5)
		t[4] = time.Now()
		res := s.e.Run()
		t[5] = time.Now()
		v := spanner.Check(s.gc, s.hc, spanner.NewStretch(1, 0))
		t[6] = time.Now()
		a1 := r.tr.allocMB()
		r.check(v == nil, "round %d: exact spanner fails certification: %v", k, v)
		r.check(res.H.Equal(ex.H), "round %d: distributed spanner differs from spanner.Exact", k)
		r.e2e["spanner_edges"] = float64(ex.Edges())
		if k < 0 {
			return
		}
		rounds++
		busy += t[6].Sub(t[0])
		words += res.Words
		alloc += a1 - a0
		lat = append(lat, ms(t[6].Sub(t[0])))
		parent := r.tr.add("round", k, t[0], t[6], -1, false)
		for i, name := range staticStages {
			r.tr.add(name, k, t[i], t[i+1], parent, false)
		}
	}
	for i := 0; i < r.p.Warm; i++ {
		round(-1)
	}
	ops := make(map[int]int)
	var measured time.Duration
	k := 0
	r.eachArm(func(cpu int) {
		if len(r.arms) > 1 {
			round(-1)
		}
		rounds, busy, words, alloc = 0, 0, 0, 0
		lat = lat[:0]
		armStart := time.Now()
		for time.Since(armStart) < r.budget {
			round(k)
			k++
		}
		measured += time.Since(armStart)
		ops[cpu] = rounds
	})
	r.heapLive()
	timeSetups(r, build)
	r.e2e["update_p50_ms"] = quantile(lat, 0.5)
	r.e2e["update_p90_ms"] = quantile(lat, 0.9)
	r.e2e["updates_per_s"] = float64(rounds) / busy.Seconds()
	r.e2e["words_per_update"] = ratio(float64(words), float64(rounds))

	r.layer["spanner.alloc_mb_per_round"] = ratio(alloc, float64(rounds))
	r.stageShare("spanner.exact_share", "round", "spanner.exact")
	r.stageShare("spanner.kconn3_share", "round", "spanner.kconn3")
	r.stageShare("spanner.twoconn_share", "round", "spanner.twoconn")
	r.stageShare("spanner.lowstretch_share", "round", "spanner.lowstretch")
	r.stageShare("distsim.run_share", "round", "distsim.run")
	r.stageShare("spanner.check_share", "round", "spanner.check")
	r.speedup("spanner.speedup_2v1", ops, "spanner.exact", "spanner.kconn3", "spanner.twoconn", "spanner.lowstretch", "spanner.check")
	r.speedup("distsim.speedup_2v1", ops, "distsim.run")
	r.finishTrace("round", measured)
}
