package main

import (
	"fmt"
	"runtime"
	"time"
)

// params are a workload's input sizes, recorded in every run's context.
type params struct {
	N           int     `json:"n"`
	Degree      float64 `json:"mean_degree"`
	MinSpeed    float64 `json:"min_speed,omitempty"`
	MaxSpeed    float64 `json:"max_speed,omitempty"`
	Replicas    int     `json:"replicas,omitempty"`
	Queries     int     `json:"queries_per_tick,omitempty"`
	TickEveryMS float64 `json:"tick_every_ms,omitempty"`
	Warm        int     `json:"warm_ops"`
	CheckN      int     `json:"check_n,omitempty"`
	RoutePairs  int     `json:"route_pairs,omitempty"`
}

type workload struct {
	name   string
	params func(smoke bool) params
	run    func(r *run)
}

var workloads = []workload{
	{"fleet-churn", fleetChurnParams, runFleetChurn},
	{"fleet-read", fleetReadParams, runFleetRead},
	{"flood-50k", floodParams, runFlood},
	{"static-build", staticParams, runStatic},
}

// After its measured window a run builds its system again and again,
// until it has timed at least setupMin builds and setupWindow has
// passed; setup_s is their median. The first set-ups of a process pay
// for growing the heap and for a start-up transient that lasted up to
// ~1 s: they ran 1.2–2.5× slower than later ones, by an amount that
// differed from process to process, and the median of the first 5
// moved 27–54% between runs.
const (
	setupMin    = 5
	setupWindow = 2 * time.Second
)

// run is one benchmark run of one workload.
type run struct {
	p         params
	smoke     bool
	seed      int64
	budget    time.Duration // measured time per CPU arm
	arms      []int
	tr        *tracer
	attempted int64
	failed    int64
	failures  []string
	e2e       map[string]float64
	layer     map[string]float64
}

func newRun(w workload, seed int64, seconds time.Duration, trace bool, arms []int, smoke bool) *run {
	r := &run{
		p:      w.params(smoke),
		smoke:  smoke,
		seed:   seed,
		budget: seconds / time.Duration(len(arms)),
		arms:   arms,
		tr:     newTracer(trace),
		e2e:    make(map[string]float64),
		layer:  make(map[string]float64),
	}
	for _, m := range perLayer {
		r.layer[m.name] = 0 // layers a workload does not run report 0
	}
	return r
}

// check counts one output check; a failed one makes the run incorrect.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

// count adds attempted operations and failures that are not output
// checks (queries, ticks).
func (r *run) count(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

func (r *run) execute(w workload) record {
	w.run(r)
	res := result{Metrics: make(map[string]metric)}
	defs := endToEnd
	if r.tr.on {
		defs = perLayer
	}
	for _, m := range defs {
		v, ok := r.e2e[m.name]
		if r.tr.on {
			v, ok = r.layer[m.name]
		}
		r.check(ok, "metric %s not measured", m.name)
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.failed == 0
	return record{
		Context: runContext{
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NProc:      runtime.NumCPU(),
			Seed:       r.seed,
			CPUArms:    r.arms,
			Smoke:      r.smoke,
			Params:     r.p,
		},
		Workload: w.name,
		Trace:    r.tr.on,
		Result:   res,
	}
}

// setup builds the system once from the run's seed under a "setup"
// span, whose index build receives to parent its stages, and returns
// it with the build time.
func setup[T any](r *run, build func(parent int) T) (T, time.Duration) {
	start := time.Now()
	parent := r.tr.add("setup", 0, start, start, -1, false)
	sys := build(parent)
	end := time.Now()
	if parent >= 0 {
		r.tr.spans[parent].End = end.Sub(r.tr.epoch).Nanoseconds()
	}
	return sys, end.Sub(start)
}

// timeSetups sets setup_s to the median time of cold set-ups, each
// discarded, timed until setupMin of them and setupWindow have passed.
// It runs after the measured window and after heapLive: a
// distsim.Engine whose pool has started a helper goroutine is never
// collected, so discarded set-ups stay live.
func timeSetups[T any](r *run, build func(parent int) T) {
	window := setupWindow
	if r.smoke {
		window = 0
	}
	var times []float64
	for began := time.Now(); len(times) < setupMin || time.Since(began) < window; {
		runtime.GC()
		_, d := setup(r, build)
		times = append(times, d.Seconds())
	}
	r.e2e["setup_s"] = median(times)
}

// heapLive sets heap_live_mb: the live heap now, after a forced GC.
func (r *run) heapLive() {
	r.e2e["heap_live_mb"] = heapLiveMB()
}

// setupShare sets a per-layer metric to the share of set-up time the
// named stage took.
func (r *run) setupShare(metric, stage string) {
	sums := r.tr.stageSums(0)
	r.layer[metric] = share(sums[stage], sums["setup"])
}

// eachArm runs body once per CPU arm with GOMAXPROCS set to the arm's
// core count; the untraced run has one arm at the default.
func (r *run) eachArm(body func(cpu int)) {
	def := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(def)
	gc := newGCClock()
	for _, cpu := range r.arms {
		runtime.GOMAXPROCS(cpu)
		r.tr.cpu = cpu
		g0, t0 := gc.read()
		body(cpu)
		g1, t1 := gc.read()
		r.layer["runtime.gc_cpu_frac"] = ratio(g1-g0, t1-t0)
	}
}

func (r *run) lastArm() int { return r.arms[len(r.arms)-1] }

// stageShare sets metric to the summed duration of the stages (a "-"
// prefix subtracts) over that of the parent spans, in the last arm.
func (r *run) stageShare(metric, parent string, stages ...string) {
	sums := r.tr.stageSums(r.lastArm())
	r.layer[metric] = share(stageTotal(sums, stages), sums[parent])
}

// speedup sets metric to the stages' mean time per op in the first
// (one-core) arm over that in the last arm; it stays 0 unless two arms
// ran. ops maps each arm's core count to the ops it measured.
func (r *run) speedup(metric string, ops map[int]int, stages ...string) {
	if len(r.arms) < 2 {
		return
	}
	per := func(cpu int) float64 {
		return ratio(float64(stageTotal(r.tr.stageSums(cpu), stages)), float64(ops[cpu]))
	}
	r.layer[metric] = ratio(per(r.arms[0]), per(r.lastArm()))
}

func stageTotal(sums map[string]time.Duration, stages []string) time.Duration {
	var d time.Duration
	for _, s := range stages {
		if s[0] == '-' {
			d -= sums[s[1:]]
		} else {
			d += sums[s]
		}
	}
	return d
}

// finishTrace sets the tracer's own metrics: the unattributed share of
// the op spans and the tracer's cost over the measured time.
func (r *run) finishTrace(parent string, measured time.Duration) {
	r.layer["bench.unattributed_frac"] = r.tr.unattributed(r.lastArm(), parent)
	r.layer["bench.trace_overhead_frac"] = share(r.tr.cost, measured)
}
