// Command benchjson runs the performance suites and emits
// machine-readable JSON reports so the trajectory is tracked across
// PRs:
//
//	go run ./cmd/benchjson -suite construct -n 400 -out BENCH_construct.json
//	go run ./cmd/benchjson -suite churn -churn-sizes 2000,10000,50000 -out BENCH_churn.json
//
// The construct suite mirrors the BenchmarkConstruct* micro-benchmarks
// (time/op, allocations/op, edge counts for the four spanner families).
//
// The churn suite measures incremental maintenance throughput
// (changes/sec) for all four tree builders under localized and
// scattered edge churn, at several graph sizes, in three modes:
// "single" (one change per repair), "batch" (ApplyBatch with unioned
// dirty sets) and "snapshot" (the pre-delta ablation baseline: each
// change applied as in "single", plus the O(n+m) CSR re-snapshot the
// maintainer paid per change before its delta). Each record carries
// allocations and trees rebuilt per change; "batch" context pins the
// workload parameters.
//
// The verify suite (-suite verify → BENCH_verify.json) measures
// all-pairs verification — spanner.Check, spanner.MeasureProfile and
// oracle.Validate — on the scalar reference engine and the
// word-parallel 64-source bit-packed engine, at several graph sizes,
// recording the bit-parallel speedup per operation.
//
// The distsim suite (-suite distsim → BENCH_distsim.json) measures the
// distributed protocol simulation (DESIGN.md §3d): static RemSpan runs
// on the flat-state engine vs the message-level reference (with the
// engine speedup), and live-mobility runs where per-tick unit-disk
// diffs drive dirty-root incremental re-advertisement, compared against
// OSPF-style full link-state re-flooding.
//
// The routing suite (-suite routing → BENCH_routing.json) measures the
// forwarding plane (DESIGN.md §3e): full table construction on the
// scalar per-owner builder vs the word-parallel 64-owner engine (owner
// counts are capped at large n — a full 50k FIB is n² state), and live
// mobility-driven churn through the epoch-swapped routing.Store —
// writer tick cost, lock-free query throughput, and the stale-route
// window between a physical change and the next control-plane batch.
// The replicated section (DESIGN.md §3f) runs the same live workload
// through the fault-tolerant replica tier: one writer shipping epoch
// diffs to N read replicas, GOMAXPROCS failover clients hammering the
// lock-free query surface concurrently, once on a clean transport and
// once under seeded faults (drop+delay plus a scripted crash and
// partition) — recording aggregate QPS, delta-vs-full shipping words,
// the stale-read SLO (fresh fraction, lag histogram tail, degraded and
// failed counts) and the recovery time back to lag 0 after heal.
//
// -quick replaces testing.Benchmark with one timed iteration per cell —
// the smoke-test and CI mode.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"remspan"
	"remspan/internal/distsim"
	"remspan/internal/domtree"
	"remspan/internal/dynamic"
	"remspan/internal/gen"
	"remspan/internal/graph"
	"remspan/internal/mobility"
	"remspan/internal/oracle"
	"remspan/internal/replica"
	"remspan/internal/routing"
	"remspan/internal/spanner"
)

// quickMode is set by -quick: every benchmark cell runs one timed
// iteration (with malloc counters from runtime.MemStats) instead of the
// auto-scaling testing.Benchmark loop.
var quickMode bool

// cpuArms is the -cpu sweep: every suite repeats its cells once per
// listed GOMAXPROCS value, stamping each record with the arm it ran
// under (the core-scaling ablation of the shard-parallel engine).
// Empty means one arm at the current GOMAXPROCS.
var cpuArms []int

// cpuList resolves the active sweep.
func cpuList() []int {
	if len(cpuArms) == 0 {
		return []int{runtime.GOMAXPROCS(0)}
	}
	return cpuArms
}

// forEachCPU runs body once per -cpu arm with GOMAXPROCS pinned to the
// arm's value for the duration (restored after).
func forEachCPU(body func(cpu int)) {
	for _, c := range cpuList() {
		prev := runtime.GOMAXPROCS(c)
		body(c)
		runtime.GOMAXPROCS(prev)
	}
}

// benchRes is the subset of testing.BenchmarkResult the reports use,
// producible by either measurement mode.
type benchRes struct {
	NsPerOp     float64
	AllocsPerOp int64
	BytesPerOp  int64
	N           int
}

// bench measures f in the current mode.
func bench(f func()) benchRes {
	if quickMode {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		f()
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		return benchRes{
			NsPerOp:     float64(elapsed.Nanoseconds()),
			AllocsPerOp: int64(after.Mallocs - before.Mallocs),
			BytesPerOp:  int64(after.TotalAlloc - before.TotalAlloc),
			N:           1,
		}
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f()
		}
	})
	return benchRes{
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		N:           res.N,
	}
}

func mustSpanner(s *remspan.Spanner, err error) *remspan.Spanner {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	return s
}

type constructRecord struct {
	Name        string  `json:"name"`
	N           int     `json:"n,omitempty"` // scale arms; the context n otherwise
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Edges       int     `json:"edges"`
	Iterations  int     `json:"iterations"`
}

type constructReport struct {
	Context struct {
		N          int     `json:"n"`
		Side       float64 `json:"udg_side"`
		AvgDegree  float64 `json:"avg_degree"`
		Seed       int64   `json:"seed"`
		GraphEdges int     `json:"graph_edges"`
		ScaleSizes []int   `json:"scale_sizes,omitempty"`
		GoVersion  string  `json:"go_version"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		CPUList    []int   `json:"cpu_list"`
	} `json:"context"`
	Benchmarks []constructRecord `json:"benchmarks"`
}

type churnRecord struct {
	Builder               string  `json:"builder"`
	Radius                int     `json:"radius"`
	GOMAXPROCS            int     `json:"gomaxprocs"`
	N                     int     `json:"n"`
	GraphEdges            int     `json:"graph_edges"`
	Locality              string  `json:"locality"`
	Mode                  string  `json:"mode"`
	BatchSize             int     `json:"batch_size"`
	NsPerChange           float64 `json:"ns_per_change"`
	AllocsPerChange       float64 `json:"allocs_per_change"`
	BytesPerChange        float64 `json:"bytes_per_change"`
	ChangesPerSec         float64 `json:"changes_per_sec"`
	TreesRebuiltPerChange float64 `json:"trees_rebuilt_per_change"`
	Changes               int64   `json:"changes_measured"`
}

type churnReport struct {
	Context struct {
		Sizes      []int  `json:"sizes"`
		Degree     int    `json:"target_degree"`
		Seed       int64  `json:"seed"`
		BatchSize  int    `json:"batch_size"`
		GoVersion  string `json:"go_version"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		CPUList    []int  `json:"cpu_list"`
	} `json:"context"`
	Benchmarks []churnRecord `json:"benchmarks"`
}

type verifyRecord struct {
	Workload        string  `json:"workload"`
	Op              string  `json:"op"`
	Engine          string  `json:"engine"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	N               int     `json:"n"`
	GraphEdges      int     `json:"graph_edges"`
	SpannerEdges    int     `json:"spanner_edges"`
	NsPerOp         float64 `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	SpeedupVsScalar float64 `json:"speedup_vs_scalar,omitempty"`
	Iterations      int     `json:"iterations"`
}

type verifyReport struct {
	Context struct {
		Sizes      []int  `json:"sizes"`
		BigSizes   []int  `json:"big_sizes,omitempty"`
		Degree     int    `json:"target_degree"`
		Seed       int64  `json:"seed"`
		GoVersion  string `json:"go_version"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		CPUList    []int  `json:"cpu_list"`
	} `json:"context"`
	Benchmarks []verifyRecord `json:"benchmarks"`
}

func main() {
	suite := flag.String("suite", "construct", "benchmark suite: construct | churn | verify | distsim | routing")
	n := flag.Int("n", 400, "construct suite: graph size (vertices)")
	side := flag.Float64("side", 4, "construct suite: UDG square side (the historical dense-graph workload; the real mean degree lands near n/5 and is reported as avg_degree)")
	churnDeg := flag.Int("churn-deg", 8, "churn suite: target average UDG degree (keep > ~4.5, the percolation threshold)")
	seed := flag.Int64("seed", 1, "generator seed")
	sizes := flag.String("churn-sizes", "2000,10000,50000", "churn suite: comma-separated graph sizes")
	vsizes := flag.String("verify-sizes", "2000,10000,50000", "verify suite: comma-separated graph sizes")
	verifyDeg := flag.Int("verify-deg", 24, "verify suite: target average UDG degree (the ER workload is pinned at table 1's mean degree 16)")
	batch := flag.Int("batch", 64, "churn suite: ApplyBatch size for the batch mode")
	dsizes := flag.String("distsim-sizes", "2000,10000,50000", "distsim suite: comma-separated graph sizes")
	distsimDeg := flag.Int("distsim-deg", 8, "distsim suite: target average UDG degree")
	distsimTicks := flag.Int("distsim-ticks", 100, "distsim suite: mobility ticks per live run")
	rsizes := flag.String("routing-sizes", "2000,10000,50000", "routing suite: comma-separated graph sizes for table construction")
	rlsizes := flag.String("routing-live-sizes", "2000,10000", "routing suite: comma-separated graph sizes for the live churn store")
	routingDeg := flag.Int("routing-deg", 24, "routing suite: target average UDG degree (the ER workload is pinned at mean degree 16)")
	routingTicks := flag.Int("routing-ticks", 50, "routing suite: mobility ticks per live run")
	routingQueries := flag.Int("routing-queries", 1024, "routing suite: store queries per tick")
	routingLiveDeg := flag.Int("routing-live-deg", 8, "routing suite: target average UDG degree of the mobility fleet (the distsim live workload)")
	routingOwnerCap := flag.Int("routing-owner-cap", 10000, "routing suite: max owners per table-construction cell (a full n-owner FIB is n² state, so 50k samples a ball-clustered subset)")
	routingReplicas := flag.Int("routing-replicas", 4, "routing suite: read replicas in the replicated-tier cells")
	scaleSizes := flag.String("construct-scale-sizes", "", "construct suite: extra constant-degree (8) UDG sizes for the kgreedy1 scale arms (e.g. 200000,1000000); empty disables")
	vbigSizes := flag.String("verify-big-sizes", "", "verify suite: extra UDG sizes measured on the bit-parallel engine only (the scalar reference is quadratic and infeasible there); empty disables")
	cpu := flag.String("cpu", "", "comma-separated GOMAXPROCS arms; every cell repeats once per arm with a per-record gomaxprocs stamp (empty: current GOMAXPROCS only)")
	quick := flag.Bool("quick", false, "one timed iteration per cell instead of testing.Benchmark (smoke/CI mode)")
	out := flag.String("out", "", "output path (- for stdout; default BENCH_<suite>.json)")
	flag.Parse()
	quickMode = *quick
	cpuArms = parseCPUs(*cpu)

	if *out == "" {
		*out = "BENCH_" + *suite + ".json"
	}
	var data []byte
	switch *suite {
	case "construct":
		data = runConstruct(*n, *side, *seed, parseSizesOpt(*scaleSizes))
	case "churn":
		data = runChurn(parseSizes(*sizes), *churnDeg, *seed, *batch)
	case "verify":
		data = runVerify(parseSizes(*vsizes), parseSizesOpt(*vbigSizes), *verifyDeg, *seed)
	case "distsim":
		data = runDistsim(parseSizes(*dsizes), *distsimDeg, *seed, *distsimTicks)
	case "routing":
		data = runRouting(parseSizes(*rsizes), parseSizes(*rlsizes), *routingDeg, *routingLiveDeg, *seed,
			*routingTicks, *routingQueries, *routingOwnerCap, *routingReplicas)
	default:
		fmt.Fprintf(os.Stderr, "benchjson: unknown suite %q\n", *suite)
		os.Exit(1)
	}
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func parseSizes(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 16 {
			fmt.Fprintf(os.Stderr, "benchjson: bad size %q\n", f)
			os.Exit(1)
		}
		out = append(out, v)
	}
	return out
}

// parseSizesOpt is parseSizes with "" meaning none.
func parseSizesOpt(s string) []int {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	return parseSizes(s)
}

func parseCPUs(s string) []int {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 || v > 1024 {
			fmt.Fprintf(os.Stderr, "benchjson: bad -cpu value %q\n", f)
			os.Exit(1)
		}
		out = append(out, v)
	}
	return out
}

func marshal(rep any) []byte {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	return append(data, '\n')
}

// runConstruct benchmarks the four constructions on the historical
// dense workload: n points in a fixed side×side square (NOT a constant
// average degree — density, and with it mean degree, grows with n; the
// actual mean degree is recorded in the context). scaleSizes adds
// kgreedy1 arms on constant-degree-8 UDGs at production sizes — the
// n ≥ 1M graph-layer scaling cells.
func runConstruct(n int, side float64, seed int64, scaleSizes []int) []byte {
	g := remspan.RandomUDG(n, side, seed)

	var rep constructReport
	rep.Context.N = g.N()
	rep.Context.Side = side
	rep.Context.AvgDegree = 2 * float64(g.M()) / float64(g.N())
	rep.Context.Seed = seed
	rep.Context.GraphEdges = g.M()
	rep.Context.ScaleSizes = scaleSizes
	rep.Context.GoVersion = runtime.Version()
	rep.Context.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.Context.CPUList = cpuList()

	const scaleDeg = 8
	scaleGraphs := make([]*graph.Graph, len(scaleSizes))
	for i, sn := range scaleSizes {
		sside := math.Sqrt(math.Pi * float64(sn) / float64(scaleDeg))
		gg := remspan.RandomUDG(sn, sside, seed)
		scaleGraphs[i] = graph.FromEdges(gg.N(), gg.Edges())
	}

	cases := []struct {
		name string
		run  func() int
	}{
		{"ConstructExact", func() int { return remspan.Exact(g).Edges() }},
		{"ConstructKConnecting3", func() int { return remspan.KConnecting(g, 3).Edges() }},
		{"ConstructTwoConnecting", func() int { return remspan.TwoConnecting(g).Edges() }},
		{"ConstructLowStretch", func() int { return mustSpanner(remspan.LowStretch(g, 0.5)).Edges() }},
	}
	forEachCPU(func(cpu int) {
		for _, c := range cases {
			edges := 0
			res := bench(func() { edges = c.run() })
			rep.Benchmarks = append(rep.Benchmarks, constructRecord{
				Name:        c.name,
				GOMAXPROCS:  cpu,
				NsPerOp:     res.NsPerOp,
				AllocsPerOp: res.AllocsPerOp,
				BytesPerOp:  res.BytesPerOp,
				Edges:       edges,
				Iterations:  res.N,
			})
			fmt.Fprintf(os.Stderr, "%-24s cpu=%-3d %12.0f ns/op %8d allocs/op %6d edges\n",
				c.name, cpu, res.NsPerOp, res.AllocsPerOp, edges)
		}
		for i, sg := range scaleGraphs {
			edges := 0
			res := bench(func() { edges = spanner.Exact(sg).H.Len() })
			rep.Benchmarks = append(rep.Benchmarks, constructRecord{
				Name:        "ConstructExactScale",
				N:           scaleSizes[i],
				GOMAXPROCS:  cpu,
				NsPerOp:     res.NsPerOp,
				AllocsPerOp: res.AllocsPerOp,
				BytesPerOp:  res.BytesPerOp,
				Edges:       edges,
				Iterations:  res.N,
			})
			fmt.Fprintf(os.Stderr, "%-24s cpu=%-3d n=%-8d %12.0f ns/op %6d edges\n",
				"ConstructExactScale", cpu, scaleSizes[i], res.NsPerOp, edges)
		}
	})
	return marshal(&rep)
}

// candidatePairs returns the pool of vertex pairs a churn run toggles.
// Localized churn confines the pool to a BFS ball around a max-degree
// vertex (the paper's locality dividend case); scattered churn draws
// from the whole vertex set.
func candidatePairs(g *graph.Graph, localized bool, rng *rand.Rand) [][2]int {
	pool := 256
	var members []int32
	if localized {
		center := 0
		for u := 1; u < g.N(); u++ {
			if g.Degree(u) > g.Degree(center) {
				center = u
			}
		}
		dist := graph.BFS(g, center)
		for radius := int32(4); len(members) < 64 && radius <= 8; radius++ {
			members = members[:0]
			for v, d := range dist {
				if d != graph.Unreached && d <= radius {
					members = append(members, int32(v))
				}
			}
		}
	} else {
		for v := 0; v < g.N(); v++ {
			members = append(members, int32(v))
		}
	}
	// Canonicalize (u < v) and dedupe so the pool holds distinct
	// undirected pairs: batches dealt from it then contain no repeated
	// edge, and every toggle in a batch applies.
	seen := make(map[[2]int]struct{}, pool)
	out := make([][2]int, 0, pool)
	for attempts := 0; len(out) < pool && attempts < 64*pool; attempts++ {
		u := int(members[rng.Intn(len(members))])
		v := int(members[rng.Intn(len(members))])
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		p := [2]int{u, v}
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		out = append(out, p)
	}
	return out
}

// churnBuilders gates the builder set by size: past 100k vertices the
// radius-2/3 families' initial full builds dominate the run (their
// balls are 1–2 hops larger), and the radius-1 production builder
// already trends the locality dividend, so the scale cells measure it
// alone.
func churnBuilders(n int) []dynamic.BuilderSpec {
	specs := dynamic.Builders()
	if n > 100000 {
		return specs[:1] // kgreedy1
	}
	return specs
}

func runChurn(sizes []int, deg int, seed int64, batchSize int) []byte {
	var rep churnReport
	rep.Context.Sizes = sizes
	rep.Context.Degree = deg
	rep.Context.Seed = seed
	rep.Context.BatchSize = batchSize
	rep.Context.GoVersion = runtime.Version()
	rep.Context.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.Context.CPUList = cpuList()

	for _, n := range sizes {
		// Side grows with √n so the average degree stays ≈ deg at every
		// size (UDG degree is π·density; density = n/side²) — the churn
		// trajectory then isolates the effect of n, not of densification.
		// deg must sit above the 2D continuum-percolation threshold
		// (mean degree ≈ 4.5): RandomUDG keeps only the largest
		// component's edges, so a subcritical target would yield mostly
		// isolated vertices and a vacuous benchmark.
		side := math.Sqrt(math.Pi * float64(n) / float64(deg))
		gg := remspan.RandomUDG(n, side, seed)
		g := graph.FromEdges(gg.N(), gg.Edges())
		forEachCPU(func(cpu int) {
			for _, bb := range churnBuilders(n) {
				for _, locality := range []string{"localized", "scattered"} {
					pairs := candidatePairs(g, locality == "localized", rand.New(rand.NewSource(seed+7)))
					for _, mode := range []string{"single", "batch", "snapshot"} {
						rec := measureChurn(g, bb.Build, bb.Radius, pairs, mode, batchSize)
						rec.Builder = bb.Name
						rec.Radius = bb.Radius
						rec.GOMAXPROCS = cpu
						rec.N = g.N()
						rec.GraphEdges = g.M()
						rec.Locality = locality
						rep.Benchmarks = append(rep.Benchmarks, rec)
						fmt.Fprintf(os.Stderr,
							"churn %-8s n=%-6d cpu=%-3d %-9s %-8s %10.0f changes/sec %8.1f allocs/change %7.2f trees/change\n",
							bb.Name, g.N(), cpu, locality, mode, rec.ChangesPerSec,
							rec.AllocsPerChange, rec.TreesRebuiltPerChange)
					}
				}
			}
		})
	}
	return marshal(&rep)
}

// snapshotSink keeps the snapshot arm's re-snapshot live, so the
// compiler cannot drop it.
var snapshotSink *graph.CSR

// measureChurn benchmarks one (builder, workload, mode) cell. The op is
// one applied change in single/snapshot mode and one ApplyBatch of
// batchSize toggles in batch mode; throughput is normalized to
// changes/sec either way.
func measureChurn(g *graph.Graph, build dynamic.TreeBuilder, radius int, pairs [][2]int, mode string, batchSize int) churnRecord {
	// Own the pool: batch mode shuffles it, and the three mode arms must
	// draw identically-ordered streams from the same pairs to be
	// directly comparable.
	pairs = append([][2]int(nil), pairs...)
	m := dynamic.New(g, radius, build)
	rng := rand.New(rand.NewSource(99))
	var changes int64
	rebuiltBase := m.TreesRebuilt()
	perOp := 1
	var res benchRes
	if mode == "batch" {
		if batchSize > len(pairs) {
			batchSize = len(pairs)
		}
		perOp = batchSize
		batch := make([]dynamic.Change, batchSize)
		// The pool holds distinct undirected pairs; trimming it to a
		// multiple of the batch size aligns batches with reshuffle
		// boundaries, so pairs within one batch are always distinct,
		// every toggle applies, and ApplyBatch does exactly batchSize
		// changes per op (the changes/sec normalization relies on it).
		pairs = pairs[:len(pairs)/batchSize*batchSize]
		next := len(pairs)
		res = bench(func() {
			for j := range batch {
				if next >= len(pairs) {
					rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
					next = 0
				}
				p := pairs[next]
				next++
				kind := dynamic.AddEdge
				if m.Graph().HasEdge(p[0], p[1]) {
					kind = dynamic.RemoveEdge
				}
				batch[j] = dynamic.Change{Kind: kind, U: p[0], V: p[1]}
			}
			changes += int64(m.ApplyBatch(batch))
		})
	} else {
		res = bench(func() {
			p := pairs[rng.Intn(len(pairs))]
			if m.Graph().HasEdge(p[0], p[1]) {
				m.RemoveEdge(p[0], p[1])
			} else {
				m.AddEdge(p[0], p[1])
			}
			if mode == "snapshot" {
				snapshotSink = graph.NewCSR(m.Graph()) // the ablation arm's per-change re-snapshot
			}
			changes++
		})
	}
	rebuilt := m.TreesRebuilt() - rebuiltBase
	nsPerChange := res.NsPerOp / float64(perOp)
	rec := churnRecord{
		Mode:            mode,
		BatchSize:       perOp,
		NsPerChange:     nsPerChange,
		AllocsPerChange: float64(res.AllocsPerOp) / float64(perOp),
		BytesPerChange:  float64(res.BytesPerOp) / float64(perOp),
		ChangesPerSec:   1e9 / nsPerChange,
		Changes:         changes,
	}
	if changes > 0 {
		rec.TreesRebuiltPerChange = float64(rebuilt) / float64(changes)
	}
	return rec
}

// runVerify benchmarks all-pairs verification on the two §4
// reproduction families — Erdős–Rényi at table 1's mean degree 16 and
// UDGs at the target degree — scaled to production sizes: the (1,0)
// exact remote-spanner is checked, profiled and oracle-validated by
// the scalar reference engine and by the word-parallel 64-source
// bit-packed engine.
func runVerify(sizes, bigSizes []int, deg int, seed int64) []byte {
	var rep verifyReport
	rep.Context.Sizes = sizes
	rep.Context.BigSizes = bigSizes
	rep.Context.Degree = deg
	rep.Context.Seed = seed
	rep.Context.GoVersion = runtime.Version()
	rep.Context.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.Context.CPUList = cpuList()

	for _, n := range sizes {
		workloads := []struct {
			name string
			g    *graph.Graph
		}{
			{"er16", func() *graph.Graph {
				eg := gen.ErdosRenyi(n, 16/float64(n), rand.New(rand.NewSource(seed)))
				return eg
			}()},
			{"udg", func() *graph.Graph {
				side := math.Sqrt(math.Pi * float64(n) / float64(deg))
				gg := remspan.RandomUDG(n, side, seed)
				return graph.FromEdges(gg.N(), gg.Edges())
			}()},
		}
		for _, wl := range workloads {
			forEachCPU(func(cpu int) { runVerifyWorkload(&rep, wl.name, wl.g, cpu, false) })
		}
	}
	// Big arms: all-pairs work is quadratic, so past the scalar
	// reference's reach only the word-parallel engine is measured (no
	// speedup column — there is nothing tractable to compare against).
	for _, n := range bigSizes {
		side := math.Sqrt(math.Pi * float64(n) / float64(deg))
		gg := remspan.RandomUDG(n, side, seed)
		g := graph.FromEdges(gg.N(), gg.Edges())
		forEachCPU(func(cpu int) { runVerifyWorkload(&rep, "udg", g, cpu, true) })
	}
	return marshal(&rep)
}

func runVerifyWorkload(rep *verifyReport, workload string, g *graph.Graph, cpu int, bitOnly bool) {
	h := spanner.Exact(g).Graph()
	st := spanner.NewStretch(1, 0)
	o := oracle.New(g, h, st)

	type arm struct {
		op, engine string
		run        func()
	}
	arms := []arm{
		{"check", "scalar", func() {
			if v := spanner.CheckScalar(g, h, st); v != nil {
				fmt.Fprintln(os.Stderr, "benchjson: unexpected violation:", v)
				os.Exit(1)
			}
		}},
		{"check", "bitparallel", func() {
			if v := spanner.Check(g, h, st); v != nil {
				fmt.Fprintln(os.Stderr, "benchjson: unexpected violation:", v)
				os.Exit(1)
			}
		}},
		{"profile", "scalar", func() { spanner.MeasureProfileScalar(g, h) }},
		{"profile", "bitparallel", func() { spanner.MeasureProfile(g, h) }},
		{"validate", "scalar", func() { o.ValidateScalar() }},
		{"validate", "bitparallel", func() { o.Validate() }},
	}
	scalarNs := map[string]float64{}
	for _, a := range arms {
		if bitOnly && a.engine == "scalar" {
			continue
		}
		res := bench(a.run)
		rec := verifyRecord{
			Workload: workload, Op: a.op, Engine: a.engine, GOMAXPROCS: cpu,
			N: g.N(), GraphEdges: g.M(), SpannerEdges: h.M(),
			NsPerOp:     res.NsPerOp,
			AllocsPerOp: res.AllocsPerOp,
			BytesPerOp:  res.BytesPerOp,
			Iterations:  res.N,
		}
		if a.engine == "scalar" {
			scalarNs[a.op] = rec.NsPerOp
		} else if s := scalarNs[a.op]; s > 0 {
			rec.SpeedupVsScalar = s / rec.NsPerOp
		}
		rep.Benchmarks = append(rep.Benchmarks, rec)
		fmt.Fprintf(os.Stderr, "verify %-5s %-8s n=%-6d cpu=%-3d %-12s %14.0f ns/op %8d allocs/op speedup %5.1f\n",
			workload, a.op, g.N(), cpu, a.engine, rec.NsPerOp, rec.AllocsPerOp, rec.SpeedupVsScalar)
	}
}

// --- distsim suite ---

type distsimStaticRecord struct {
	Mode               string  `json:"mode"` // "static"
	Engine             string  `json:"engine"`
	Builder            string  `json:"builder"`
	GOMAXPROCS         int     `json:"gomaxprocs"`
	N                  int     `json:"n"`
	GraphEdges         int     `json:"graph_edges"`
	SpannerEdges       int     `json:"spanner_edges"`
	Rounds             int     `json:"rounds"`
	Messages           int64   `json:"messages"`
	Words              int64   `json:"words"`
	FullLSWords        int64   `json:"full_linkstate_words"`
	NsPerOp            float64 `json:"ns_per_op"`
	AllocsPerOp        int64   `json:"allocs_per_op"`
	BytesPerOp         int64   `json:"bytes_per_op"`
	SpeedupVsReference float64 `json:"speedup_vs_reference,omitempty"`
	Iterations         int     `json:"iterations"`
}

type distsimLiveRecord struct {
	Mode              string  `json:"mode"` // "live"
	Builder           string  `json:"builder"`
	GOMAXPROCS        int     `json:"gomaxprocs"`
	N                 int     `json:"n"`
	Ticks             int     `json:"ticks"`
	ColdStartNs       float64 `json:"cold_start_ns"`
	NsPerTick         float64 `json:"ns_per_tick"`
	ChangesPerTick    float64 `json:"changes_per_tick"`
	DirtyRootsPerTick float64 `json:"dirty_roots_per_tick"`
	RefloodsPerTick   float64 `json:"refloods_per_tick"`
	WordsPerTick      float64 `json:"words_per_tick"`
	FullWordsPerTick  float64 `json:"full_linkstate_words_per_tick"`
	WordSaving        float64 `json:"word_saving_vs_full_ls"`
}

type distsimReport struct {
	Context struct {
		Sizes      []int   `json:"sizes"`
		Degree     int     `json:"target_degree"`
		Seed       int64   `json:"seed"`
		Ticks      int     `json:"live_ticks"`
		MinSpeed   float64 `json:"live_min_speed"`
		MaxSpeed   float64 `json:"live_max_speed"`
		GoVersion  string  `json:"go_version"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		CPUList    []int   `json:"cpu_list"`
	} `json:"context"`
	Static []distsimStaticRecord `json:"static"`
	Live   []distsimLiveRecord   `json:"live"`
}

// distsimBuilders: the (1,0) MPR construction at every size; the
// radius-2 two-connecting construction up to 10k (its balls are a
// hop larger, and one production radius suffices to trend the 50k
// point).
func distsimBuilders(n int) []dynamic.BuilderSpec {
	specs := dynamic.Builders()
	out := specs[:1] // kgreedy1
	if n <= 10000 {
		out = specs[:2] // + kmis2
	}
	return out
}

// runDistsim benchmarks the distributed protocol simulation: static
// runs (engine vs message-level reference, with the engine speedup and
// the full link-state comparison) and live-mobility runs (per-tick
// dirty-root re-advertisement vs full link-state re-flooding). The
// reference engine's per-node O(n) local view makes it quadratic in n,
// so it is measured only up to 10k.
func runDistsim(sizes []int, deg int, seed int64, ticks int) []byte {
	var rep distsimReport
	const minSpeed, maxSpeed = 0.01, 0.05
	// Quick mode clamps the live runs; the context must record what
	// actually ran, not the flag.
	if quickMode && ticks > 10 {
		ticks = 10
	}
	rep.Context.Sizes = sizes
	rep.Context.Degree = deg
	rep.Context.Seed = seed
	rep.Context.Ticks = ticks
	rep.Context.MinSpeed = minSpeed
	rep.Context.MaxSpeed = maxSpeed
	rep.Context.GoVersion = runtime.Version()
	rep.Context.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.Context.CPUList = cpuList()

	algos := map[string]distsim.TreeAlgo{
		"kgreedy1": func(local *graph.Graph, u int) *graph.Tree { return domtree.KGreedy(local, u, 1) },
		"kmis2":    func(local *graph.Graph, u int) *graph.Tree { return domtree.KMIS(local, u, 2) },
	}

	for _, n := range sizes {
		// Constant mean degree across sizes, as in the churn suite.
		side := math.Sqrt(math.Pi * float64(n) / float64(deg))
		gg := remspan.RandomUDG(n, side, seed)
		g := graph.FromEdges(gg.N(), gg.Edges())
		_, fullWords := distsim.FullLinkState(g)

		forEachCPU(func(cpu int) {
			for _, bb := range distsimBuilders(n) {
				var res *distsim.Result
				engRes := bench(func() { res = distsim.RunRemSpan(g, bb.Radius, distsim.TreeBuilder(bb.Build)) })
				rec := distsimStaticRecord{
					Mode: "static", Engine: "engine", Builder: bb.Name, GOMAXPROCS: cpu,
					N: g.N(), GraphEdges: g.M(), SpannerEdges: res.H.Len(),
					Rounds: res.Rounds, Messages: res.Messages, Words: res.Words,
					FullLSWords: fullWords,
					NsPerOp:     engRes.NsPerOp, AllocsPerOp: engRes.AllocsPerOp,
					BytesPerOp: engRes.BytesPerOp, Iterations: engRes.N,
				}
				fmt.Fprintf(os.Stderr, "distsim static %-8s n=%-6d cpu=%-3d engine    %14.0f ns/op %10d words\n",
					bb.Name, g.N(), cpu, engRes.NsPerOp, res.Words)

				// The reference is measured only at sizes where its quadratic
				// local-view cost stays tolerable.
				if n <= 10000 {
					var ref *distsim.Result
					refRes := bench(func() { ref = distsim.RunRemSpanReference(g, bb.Radius, algos[bb.Name]) })
					rep.Static = append(rep.Static, rec)
					refRec := distsimStaticRecord{
						Mode: "static", Engine: "reference", Builder: bb.Name, GOMAXPROCS: cpu,
						N: g.N(), GraphEdges: g.M(), SpannerEdges: ref.H.Len(),
						Rounds: ref.Rounds, Messages: ref.Messages, Words: ref.Words,
						FullLSWords: fullWords,
						NsPerOp:     refRes.NsPerOp, AllocsPerOp: refRes.AllocsPerOp,
						BytesPerOp: refRes.BytesPerOp, Iterations: refRes.N,
					}
					rep.Static = append(rep.Static, refRec)
					// Stamp the speedup on the engine row just appended.
					rep.Static[len(rep.Static)-2].SpeedupVsReference = refRes.NsPerOp / engRes.NsPerOp
					if res.Words != ref.Words || res.Messages != ref.Messages {
						fmt.Fprintln(os.Stderr, "benchjson: engine/reference traffic mismatch")
						os.Exit(1)
					}
					fmt.Fprintf(os.Stderr, "distsim static %-8s n=%-6d cpu=%-3d reference %14.0f ns/op speedup %5.1f×\n",
						bb.Name, g.N(), cpu, refRes.NsPerOp, refRes.NsPerOp/engRes.NsPerOp)
				} else {
					rep.Static = append(rep.Static, rec)
				}
			}

			// Live mobility: drive the tracker/engine primitives directly so
			// cold start and tick time are measured separately.
			liveTicks := ticks
			bb := dynamic.Builders()[0] // kgreedy1
			rng := rand.New(rand.NewSource(seed))
			w := mobility.NewWaypoint(n, side, minSpeed, maxSpeed, rng)
			tr := mobility.NewTracker(w, 1.0)
			start := time.Now()
			e := distsim.NewEngine(tr.Graph(), bb.Radius, distsim.TreeBuilder(bb.Build))
			e.Run()
			cold := time.Since(start)

			var changes, dirty, refloods, words, fullW int64
			changesBuf := make([]dynamic.Change, 0, 1024)
			start = time.Now()
			for tick := 0; tick < liveTicks; tick++ {
				added, removed := tr.Tick()
				changesBuf = changesBuf[:0]
				for _, p := range removed {
					changesBuf = append(changesBuf, dynamic.Change{Kind: dynamic.RemoveEdge, U: int(p[0]), V: int(p[1])})
				}
				for _, p := range added {
					changesBuf = append(changesBuf, dynamic.Change{Kind: dynamic.AddEdge, U: int(p[0]), V: int(p[1])})
				}
				st := e.Reflood(changesBuf)
				changes += int64(st.Applied)
				dirty += int64(st.DirtyRoots)
				refloods += int64(st.Refloods)
				words += st.Words
				fullW += st.FullWords
			}
			tickNs := float64(time.Since(start).Nanoseconds()) / float64(liveTicks)
			saving := 0.0
			if words > 0 {
				saving = float64(fullW) / float64(words)
			}
			rep.Live = append(rep.Live, distsimLiveRecord{
				Mode: "live", Builder: bb.Name, N: n, Ticks: liveTicks, GOMAXPROCS: cpu,
				ColdStartNs:       float64(cold.Nanoseconds()),
				NsPerTick:         tickNs,
				ChangesPerTick:    float64(changes) / float64(liveTicks),
				DirtyRootsPerTick: float64(dirty) / float64(liveTicks),
				RefloodsPerTick:   float64(refloods) / float64(liveTicks),
				WordsPerTick:      float64(words) / float64(liveTicks),
				FullWordsPerTick:  float64(fullW) / float64(liveTicks),
				WordSaving:        saving,
			})
			fmt.Fprintf(os.Stderr, "distsim live   %-8s n=%-6d cpu=%-3d %10.0f ns/tick %8.1f changes/tick saving %6.1f×\n",
				bb.Name, n, cpu, tickNs, float64(changes)/float64(liveTicks), saving)
		})
	}
	return marshal(&rep)
}

// --- routing suite ---

type routingBuildRecord struct {
	Workload        string  `json:"workload"`
	Engine          string  `json:"engine"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	N               int     `json:"n"`
	Owners          int     `json:"owners"`
	GraphEdges      int     `json:"graph_edges"`
	SpannerEdges    int     `json:"spanner_edges"`
	NsPerOp         float64 `json:"ns_per_op"`
	NsPerOwner      float64 `json:"ns_per_owner"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	SpeedupVsScalar float64 `json:"speedup_vs_scalar,omitempty"`
	Iterations      int     `json:"iterations"`
}

type routingLiveRecord struct {
	Mode               string  `json:"mode"` // "live"
	Builder            string  `json:"builder"`
	GOMAXPROCS         int     `json:"gomaxprocs"`
	N                  int     `json:"n"`
	Ticks              int     `json:"ticks"`
	ColdStartNs        float64 `json:"cold_start_ns"`
	NsPerTick          float64 `json:"ns_per_tick"` // writer: ApplyBatch incl. dirty-owner table rebuild
	ChangesPerTick     float64 `json:"changes_per_tick"`
	DirtyOwnersPerTick float64 `json:"dirty_owners_per_tick"`
	AllocsPerTick      float64 `json:"allocs_per_tick"`
	NsPerQuery         float64 `json:"ns_per_query"` // reader: lock-free epoch Route
	QueriesPerSec      float64 `json:"queries_per_sec"`
	StaleWindowStale   float64 `json:"stale_window_stale_per_tick"` // RouteOn failures before catch-up
	StaleWindowOK      float64 `json:"stale_window_delivered_per_tick"`
	EpochSeq           uint64  `json:"final_epoch"`
}

// routingReplicatedRecord is one replicated-tier cell: N replicas
// under live churn, concurrent failover clients, with or without
// transport faults.
type routingReplicatedRecord struct {
	Mode          string  `json:"mode"` // "replicated"
	GOMAXPROCS    int     `json:"gomaxprocs"`
	N             int     `json:"n"`
	Replicas      int     `json:"replicas"`
	Ticks         int     `json:"ticks"`
	Faults        bool    `json:"faults"`
	Clients       int     `json:"clients"`         // concurrent client goroutines
	QueriesPerSec float64 `json:"queries_per_sec"` // aggregate across clients
	NsPerQuery    float64 `json:"ns_per_query"`
	NsPerTick     float64 `json:"ns_per_tick"` // writer apply + ship + transport + replica apply
	// Shipping traffic (int32 words, the distsim accounting unit).
	DeltaWordsPerTick float64 `json:"delta_words_per_tick"`
	FullResyncs       int     `json:"full_resyncs"` // bootstrap + crash/gap recoveries
	FullWords         int64   `json:"full_words_total"`
	// Stale-read SLO.
	FreshFraction float64 `json:"fresh_fraction"` // table-served queries at lag 0
	LagMax        uint64  `json:"lag_max"`
	Degraded      int64   `json:"degraded_queries"`
	Failed        int64   `json:"failed_queries"`
	Hedges        int64   `json:"hedges"`
	Backoffs      int64   `json:"backoffs"`
	// Recovery: ticks from the heal tick until every live replica is
	// back to lag 0 (-1: never within the run; 0: clean run).
	RecoveryTicks int `json:"recovery_ticks"`
}

type routingReport struct {
	Context struct {
		Sizes      []int  `json:"sizes"`
		LiveSizes  []int  `json:"live_sizes"`
		Degree     int    `json:"target_degree"`
		LiveDegree int    `json:"live_target_degree"`
		Seed       int64  `json:"seed"`
		Ticks      int    `json:"live_ticks"`
		Queries    int    `json:"queries_per_tick"`
		OwnerCap   int    `json:"owner_cap"`
		Replicas   int    `json:"replicas"`
		GoVersion  string `json:"go_version"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		CPUList    []int  `json:"cpu_list"`
	} `json:"context"`
	Build      []routingBuildRecord      `json:"build"`
	Live       []routingLiveRecord       `json:"live"`
	Replicated []routingReplicatedRecord `json:"replicated"`
}

// runRouting benchmarks the forwarding plane: table construction
// (scalar vs word-parallel) on the two §4 workload families, and the
// epoch-swapped routing.Store under mobility-driven churn.
func runRouting(sizes, liveSizes []int, deg, liveDeg int, seed int64, ticks, queries, ownerCap, nrep int) []byte {
	var rep routingReport
	if quickMode && ticks > 10 {
		ticks = 10
	}
	rep.Context.Sizes = sizes
	rep.Context.LiveSizes = liveSizes
	rep.Context.Degree = deg
	rep.Context.LiveDegree = liveDeg
	rep.Context.Seed = seed
	rep.Context.Ticks = ticks
	rep.Context.Queries = queries
	rep.Context.OwnerCap = ownerCap
	rep.Context.Replicas = nrep
	rep.Context.GoVersion = runtime.Version()
	rep.Context.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.Context.CPUList = cpuList()

	for _, n := range sizes {
		workloads := []struct {
			name string
			g    *graph.Graph
		}{
			{"er16", gen.ErdosRenyi(n, 16/float64(n), rand.New(rand.NewSource(seed)))},
			{"udg", func() *graph.Graph {
				side := math.Sqrt(math.Pi * float64(n) / float64(deg))
				gg := remspan.RandomUDG(n, side, seed)
				return graph.FromEdges(gg.N(), gg.Edges())
			}()},
		}
		for _, wl := range workloads {
			runRoutingBuild(&rep, wl.name, wl.g, ownerCap)
		}
	}
	for _, n := range liveSizes {
		forEachCPU(func(cpu int) {
			rec := runRoutingLive(n, liveDeg, seed, ticks, queries)
			rec.GOMAXPROCS = cpu
			rep.Live = append(rep.Live, rec)
		})
	}
	// Replicated tier on the smallest live size: N replicas are N full
	// table sets, so the cell is sized for memory, not for n-scaling
	// (the per-replica query path is the same lock-free walk the live
	// section already scales).
	if len(liveSizes) > 0 {
		n := liveSizes[0]
		for _, faults := range []bool{false, true} {
			forEachCPU(func(cpu int) {
				rec := runRoutingReplicated(n, liveDeg, seed, ticks, queries, nrep, faults)
				rec.GOMAXPROCS = cpu
				rep.Replicated = append(rep.Replicated, rec)
			})
		}
	}
	return marshal(&rep)
}

// runRoutingReplicated drives the fault-tolerant replica tier
// (DESIGN.md §3f) under the same mobility workload as runRoutingLive:
// each tick the writer applies the unit-disk diff and ships the epoch
// diff to nrep replicas through the (possibly faulty) transport, then
// GOMAXPROCS failover clients — one per goroutine, each with its own
// SLO accounting, merged at the end — run a concurrent query burst
// against the replicas' lock-free surface. The faulty arm adds 5%
// drop, 20% delay, a replica crash at ticks/4 (restart at ticks/2) and
// a partition at ticks/3 (healed at ticks/2), then measures how many
// ticks past the heal the cluster needs to return every live replica
// to lag 0.
func runRoutingReplicated(n, deg int, seed int64, ticks, queries, nrep int, faults bool) routingReplicatedRecord {
	const minSpeed, maxSpeed = 0.01, 0.05
	side := math.Sqrt(math.Pi * float64(n) / float64(deg))
	rng := rand.New(rand.NewSource(seed))
	w := mobility.NewWaypoint(n, side, minSpeed, maxSpeed, rng)
	tr := mobility.NewTracker(w, 1.0)
	bb := dynamic.Builders()[0] // kgreedy1

	st := routing.NewStore(dynamic.New(tr.Graph(), bb.Radius, bb.Build))
	plan := replica.FaultPlan{Seed: seed + 7}
	if faults {
		plan.DropProb = 0.05
		plan.DelayProb = 0.2
		plan.DelayMax = 2
	}
	c := replica.NewCluster(st, nrep, plan)

	nw := runtime.GOMAXPROCS(0)
	if nw > 8 {
		nw = 8
	}
	clients := make([]*replica.Client, nw)
	qrngs := make([]*rand.Rand, nw)
	for i := range clients {
		clients[i] = replica.NewClient(c, replica.DefaultClientConfig(seed+int64(i)))
		qrngs[i] = rand.New(rand.NewSource(seed + 100 + int64(i)))
	}

	healTick := ticks / 2
	crashAt, partAt := ticks/4, ticks/3
	victim, cut := 1%nrep, 2%nrep
	recovery := -1
	if !faults {
		recovery = 0
	}

	var tickNs, queryNs, queriesRun int64
	changesBuf := make([]dynamic.Change, 0, 1024)
	var wg sync.WaitGroup
	for tick := 0; tick < ticks; tick++ {
		if faults {
			if tick == crashAt {
				c.Replicas[victim].Crash()
			}
			if tick == partAt {
				c.Inj.Partition(cut, true)
			}
			if tick == healTick {
				c.Replicas[victim].Restart()
				c.Inj.Partition(cut, false)
				c.Inj.Heal()
			}
		}
		added, removed := tr.Tick()
		changesBuf = changesBuf[:0]
		for _, p := range removed {
			changesBuf = append(changesBuf, dynamic.Change{Kind: dynamic.RemoveEdge, U: int(p[0]), V: int(p[1])})
		}
		for _, p := range added {
			changesBuf = append(changesBuf, dynamic.Change{Kind: dynamic.AddEdge, U: int(p[0]), V: int(p[1])})
		}
		t0 := time.Now()
		c.Tick(changesBuf)
		tickNs += time.Since(t0).Nanoseconds()
		if faults && recovery < 0 && tick >= healTick && c.MaxLag() == 0 {
			recovery = tick - healTick
		}
		// Concurrent burst: every client goroutine issues its share of
		// the tick's queries against the lock-free replica surface.
		t0 = time.Now()
		for i := 0; i < nw; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cl, qr := clients[i], qrngs[i]
				cl.Tick()
				for q := 0; q < queries; q++ {
					cl.Route(qr.Intn(n), qr.Intn(n))
				}
			}(i)
		}
		wg.Wait()
		queryNs += time.Since(t0).Nanoseconds()
		queriesRun += int64(nw * queries)
	}

	var slo replica.SLOStats
	for _, cl := range clients {
		slo.MergeSLO(&cl.SLO)
	}
	rec := routingReplicatedRecord{
		Mode: "replicated", N: n, Replicas: nrep, Ticks: ticks, Faults: faults, Clients: nw,
		QueriesPerSec:     1e9 * float64(queriesRun) / float64(queryNs),
		NsPerQuery:        float64(queryNs) / float64(queriesRun),
		NsPerTick:         float64(tickNs) / float64(ticks),
		DeltaWordsPerTick: float64(c.W.DeltaWords) / float64(nrep) / float64(ticks),
		FullResyncs:       c.W.FullShipments,
		FullWords:         c.W.FullWords,
		FreshFraction:     slo.FreshFraction(),
		LagMax:            slo.LagMax,
		Degraded:          slo.Degraded,
		Failed:            slo.Failed,
		Hedges:            slo.Hedges,
		Backoffs:          slo.Backoffs,
		RecoveryTicks:     recovery,
	}
	fmt.Fprintf(os.Stderr, "routing repl  n=%-6d reps=%d faults=%-5v %10.0f queries/sec fresh %.3f degraded %d recovery %d ticks\n",
		n, nrep, faults, rec.QueriesPerSec, rec.FreshFraction, rec.Degraded, rec.RecoveryTicks)
	return rec
}

// runRoutingBuild measures one workload's table construction, scalar
// vs batched, over the same ball-clustered owner set (all owners, or
// the first ownerCap of the clustered order at large n).
func runRoutingBuild(rep *routingReport, workload string, g *graph.Graph, ownerCap int) {
	h := spanner.Exact(g).Graph()
	cg, ch := graph.NewCSR(g), graph.NewCSR(h)
	n := g.N()
	order, _ := graph.BatchOrder(cg)
	owners := order
	// Each owner costs two n-entry int32 rows (8 bytes per slot); scale
	// the cap down with n so the slabs stay ≈2 GB at the production
	// sizes instead of letting owners×n grow quadratically.
	effCap := ownerCap
	if n > 0 {
		if memCap := 250_000_000 / n; memCap < effCap {
			effCap = memCap
		}
	}
	if effCap < 1 {
		effCap = 1
	}
	if len(owners) > effCap {
		owners = owners[:effCap]
	}
	// Rows live in two contiguous slabs, the same layout
	// routing.NewTables gives a full build (scattered per-owner rows
	// would tax the builders' streaming phases with TLB misses the
	// production path never pays).
	tables := make([]routing.Table, n)
	nextSlab := make([]int32, len(owners)*n)
	distSlab := make([]int32, len(owners)*n)
	for j, u := range owners {
		tables[u] = routing.Table{
			Owner: int(u),
			Next:  nextSlab[j*n : (j+1)*n : (j+1)*n],
			Dist:  distSlab[j*n : (j+1)*n : (j+1)*n],
		}
	}

	scratch := routing.NewTableScratch(n)
	bb := routing.NewBatchBuilder(n)
	arms := []struct {
		engine string
		run    func()
	}{
		{"scalar", func() {
			for _, u := range owners {
				scratch.BuildTableInto(cg, ch, int(u), tables[u].Next, tables[u].Dist)
			}
		}},
		{"batched", func() { bb.BuildInto(cg, ch, tables, owners) }},
	}
	forEachCPU(func(cpu int) {
		scalarNs := 0.0
		for _, a := range arms {
			res := bench(a.run)
			rec := routingBuildRecord{
				Workload: workload, Engine: a.engine, GOMAXPROCS: cpu,
				N: n, Owners: len(owners), GraphEdges: g.M(), SpannerEdges: h.M(),
				NsPerOp: res.NsPerOp, NsPerOwner: res.NsPerOp / float64(len(owners)),
				AllocsPerOp: res.AllocsPerOp, BytesPerOp: res.BytesPerOp, Iterations: res.N,
			}
			if a.engine == "scalar" {
				scalarNs = rec.NsPerOp
			} else if scalarNs > 0 {
				rec.SpeedupVsScalar = scalarNs / rec.NsPerOp
			}
			rep.Build = append(rep.Build, rec)
			fmt.Fprintf(os.Stderr, "routing build %-5s n=%-6d owners=%-6d cpu=%-3d %-8s %14.0f ns/op %8d allocs/op speedup %5.1f\n",
				workload, n, len(owners), cpu, a.engine, rec.NsPerOp, rec.AllocsPerOp, rec.SpeedupVsScalar)
		}
	})
}

// runRoutingLive drives the epoch-swapped store with the mobility
// tracker: each tick the unit-disk diff is applied as one batch
// (dirty-owner table rebuild included), queries run lock-free against
// the published epoch, and a pre-catch-up RouteOn pass against the
// fresh physical graph measures the stale-route window.
func runRoutingLive(n, deg int, seed int64, ticks, queries int) routingLiveRecord {
	const minSpeed, maxSpeed = 0.01, 0.05
	side := math.Sqrt(math.Pi * float64(n) / float64(deg))
	rng := rand.New(rand.NewSource(seed))
	w := mobility.NewWaypoint(n, side, minSpeed, maxSpeed, rng)
	tr := mobility.NewTracker(w, 1.0)
	bb := dynamic.Builders()[0] // kgreedy1

	start := time.Now()
	st := routing.NewStore(dynamic.New(tr.Graph(), bb.Radius, bb.Build))
	cold := time.Since(start)
	reader := st.NewReader()
	qrng := rand.New(rand.NewSource(seed + 13))

	var tickNs, changes, dirty, staleHit, staleOK, queriesRun, queryNs int64
	var allocs uint64
	changesBuf := make([]dynamic.Change, 0, 1024)
	var ms runtime.MemStats
	for tick := 0; tick < ticks; tick++ {
		added, removed := tr.Tick()
		changesBuf = changesBuf[:0]
		for _, p := range removed {
			changesBuf = append(changesBuf, dynamic.Change{Kind: dynamic.RemoveEdge, U: int(p[0]), V: int(p[1])})
		}
		for _, p := range added {
			changesBuf = append(changesBuf, dynamic.Change{Kind: dynamic.AddEdge, U: int(p[0]), V: int(p[1])})
		}
		// Stale window: the physical truth moved, the control plane has
		// not caught up yet.
		phys := tr.Graph()
		for q := 0; q < queries/8; q++ {
			r := reader.RouteOn(phys, qrng.Intn(n), qrng.Intn(n))
			if r.Reason == routing.RouteStaleLink {
				staleHit++
			} else if r.OK {
				staleOK++
			}
		}
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		t0 := time.Now()
		applied := st.ApplyBatch(changesBuf)
		tickNs += time.Since(t0).Nanoseconds()
		runtime.ReadMemStats(&ms)
		allocs += ms.Mallocs - m0
		changes += int64(applied)
		dirty += int64(len(st.Maintainer().DirtyRoots()))
		// Steady-state query throughput against the fresh epoch.
		t0 = time.Now()
		for q := 0; q < queries; q++ {
			reader.Route(qrng.Intn(n), qrng.Intn(n))
		}
		queryNs += time.Since(t0).Nanoseconds()
		queriesRun += int64(queries)
	}
	rec := routingLiveRecord{
		Mode: "live", Builder: bb.Name, N: n, Ticks: ticks,
		ColdStartNs:        float64(cold.Nanoseconds()),
		NsPerTick:          float64(tickNs) / float64(ticks),
		ChangesPerTick:     float64(changes) / float64(ticks),
		DirtyOwnersPerTick: float64(dirty) / float64(ticks),
		AllocsPerTick:      float64(allocs) / float64(ticks),
		NsPerQuery:         float64(queryNs) / float64(queriesRun),
		QueriesPerSec:      1e9 * float64(queriesRun) / float64(queryNs),
		StaleWindowStale:   float64(staleHit) / float64(ticks),
		StaleWindowOK:      float64(staleOK) / float64(ticks),
		EpochSeq:           st.Epoch().Seq(),
	}
	fmt.Fprintf(os.Stderr, "routing live  n=%-6d %12.0f ns/tick %8.1f changes/tick %10.0f queries/sec %6.1f stale/tick\n",
		n, rec.NsPerTick, rec.ChangesPerTick, rec.QueriesPerSec, rec.StaleWindowStale)
	return rec
}
