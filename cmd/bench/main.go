// Command bench is the repository benchmark: it drives the public
// functions of mobility, dynamic, routing, replica, distsim and spanner
// from one process, times every call from outside, checks the outputs,
// and prints one JSON result line per workload.
//
//	bench -workload fleet-churn -seed 1 -seconds 20 -trace 0
//	bench -workload all -seed 1
//	bench -compare 'parent/*.jsonl' 'change/*.jsonl' [-claim update_p50_ms:fleet-churn]
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced
// run (-trace 1) replays nested layers on shadow copies, runs one arm
// per -cpu core count, and reports the per-layer metrics instead. See
// README.md for the workloads and how to read the output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef is one reported metric. The lists below must match
// BENCHMARK.json name for name and unit for unit (pinned by
// TestMetricsMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"update_p50_ms", "ms"},
	{"update_p90_ms", "ms"},
	{"updates_per_s", "1/s"},
	{"words_per_update", "words"},
	{"spanner_edges", "count"},
	{"heap_live_mb", "MB"},
}

var perLayer = []metricDef{
	{"mobility.tick_share", "ratio"},
	{"mobility.changes_per_tick", "count"},
	{"mobility.speedup_2v1", "ratio"},
	{"dynamic.apply_batch_share", "ratio"},
	{"dynamic.trees_rebuilt_per_tick", "count"},
	{"dynamic.speedup_2v1", "ratio"},
	{"routing.publish_share", "ratio"},
	{"routing.dirty_owners_per_tick", "count"},
	{"routing.rows_changed_frac", "ratio"},
	{"routing.route_hops_mean", "count"},
	{"routing.new_store_setup_share", "ratio"},
	{"routing.speedup_2v1", "ratio"},
	{"replica.writer_apply_share", "ratio"},
	{"replica.deliver_share", "ratio"},
	{"replica.protocol_share", "ratio"},
	{"replica.writer_alloc_mb_per_tick", "MB"},
	{"replica.resyncs", "count"},
	{"replica.queries_per_ms", "1/ms"},
	{"replica.fresh_read_frac", "ratio"},
	{"replica.client_overhead_frac", "ratio"},
	{"replica.new_cluster_setup_share", "ratio"},
	{"replica.speedup_2v1", "ratio"},
	{"distsim.reflood_share", "ratio"},
	{"distsim.run_share", "ratio"},
	{"distsim.dirty_roots_per_tick", "count"},
	{"distsim.refloods_per_tick", "count"},
	{"distsim.reflood_frac", "ratio"},
	{"distsim.alloc_mb_per_tick", "MB"},
	{"distsim.cold_run_setup_share", "ratio"},
	{"distsim.speedup_2v1", "ratio"},
	{"spanner.exact_share", "ratio"},
	{"spanner.kconn3_share", "ratio"},
	{"spanner.twoconn_share", "ratio"},
	{"spanner.lowstretch_share", "ratio"},
	{"spanner.check_share", "ratio"},
	{"spanner.alloc_mb_per_round", "MB"},
	{"spanner.speedup_2v1", "ratio"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"bench.tick_late_frac", "ratio"},
	{"bench.unattributed_frac", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark contract reads: exactly these keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runContext is everything that must match for two runs to be
// comparable, plus the commit, which may differ.
type runContext struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	CPUArms    []int   `json:"cpu_arms"`
	Smoke      bool    `json:"smoke"`
	Params     params  `json:"params"`
}

// record is one run as printed on the first output line and read by
// -compare.
type record struct {
	Context  runContext `json:"context"`
	Workload string     `json:"workload"`
	Trace    bool       `json:"trace"`
	Result   result     `json:"result"`
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds per run (split across traced CPU arms)")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	cpus := fs.String("cpu", "", "traced run: comma-separated GOMAXPROCS arms (default 1,nproc)")
	smoke := fs.Bool("smoke", false, "tiny inputs for tests")
	spansOut := fs.String("spans", "", "traced run: write the spans as JSON to this file")
	compare := fs.Bool("compare", false, "compare two sets of records: bench -compare 'A/*.jsonl' 'B/*.jsonl'")
	claim := fs.String("claim", "", "with -compare: metric:workload to test by the 9-of-10 pairs rule")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two record sets (files or quoted globs)")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), *claim, stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	arms := []int{runtime.GOMAXPROCS(0)}
	if *trace == 1 {
		var err error
		if arms, err = parseArms(*cpus); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}

	code := 0
	for _, w := range selected {
		r := newRun(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, arms, *smoke)
		rec := r.execute(w)
		rec.Context.Commit = gitCommit()
		rec.Context.Seconds = *seconds
		for _, f := range r.failures {
			fmt.Fprintf(stderr, "bench: %s: check failed: %s\n", w.name, f)
		}
		if *spansOut != "" && r.tr.on {
			if err := r.tr.write(*spansOut); err != nil {
				fmt.Fprintln(stderr, "bench: writing spans:", err)
				return 1
			}
		}
		line, err := json.Marshal(rec)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		res, err := json.Marshal(rec.Result)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n%s\n", line, res)
		if !rec.Result.Correct {
			code = 1
		}
	}
	return code
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// parseArms reads the traced run's GOMAXPROCS arms; the default is a
// one-core arm followed by an nproc arm, so every stage gets a 2v1
// speed-up on a 2-core host.
func parseArms(s string) ([]int, error) {
	if s == "" {
		if n := runtime.NumCPU(); n > 1 {
			return []int{1, n}, nil
		}
		return []int{1}, nil
	}
	var arms []int
	for _, f := range strings.Split(s, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || c < 1 {
			return nil, fmt.Errorf("bad -cpu entry %q", f)
		}
		arms = append(arms, c)
	}
	return arms, nil
}

// gitCommit returns the checkout's HEAD, or "unknown" outside a git
// work tree (git is kept from searching above the working directory).
func gitCommit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	b, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
