package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json that -compare reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// specMetric is one metric entry; per-layer entries have no bound.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRecords reads every record line from the files matching pattern.
// Other lines (such as the bare result line of a captured stdout) are
// skipped.
func loadRecords(pattern string) ([]record, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no files match %q", pattern)
	}
	var recs []record
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
		for sc.Scan() {
			var rec record
			if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Workload != "" && rec.Result.Metrics != nil {
				recs = append(recs, rec)
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("no records in %q", pattern)
	}
	return recs, nil
}

// quartiles returns the three quartiles by the method of Python's
// statistics.quantiles(v, n=4) (the "exclusive" method).
func quartiles(v []float64) [3]float64 {
	d := slices.Clone(v)
	slices.Sort(d)
	n := len(d)
	if n == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

// sameContext reports whether two runs may be compared: everything in
// the context but the commit and the seed must match (runs are paired
// by seed, so the seed sets must match too; see pairRuns).
func sameContext(a, b runContext) bool {
	a.Commit, b.Commit = "", ""
	a.Seed, b.Seed = 0, 0
	return reflect.DeepEqual(a, b)
}

// pairRuns orders both sides by seed and pairs them index for index;
// it fails unless the two sides ran the same seeds equally often.
func pairRuns(a, b []record) error {
	bySeed := func(r []record) {
		sort.SliceStable(r, func(i, j int) bool { return r[i].Context.Seed < r[j].Context.Seed })
	}
	bySeed(a)
	bySeed(b)
	if len(a) != len(b) {
		return fmt.Errorf("%d runs against %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Context.Seed != b[i].Context.Seed {
			return fmt.Errorf("seed sets differ")
		}
	}
	return nil
}

type verdict struct {
	medA, medB   float64
	qa, qb       [3]float64
	worse        float64 // relative change, positive = worse
	spread       float64 // larger side's quartile distance over the parent median
	verdict      string
	wins, paired int // pairs where the change is strictly better
}

// judge compares one metric's runs: a regression only beyond the
// bound, "unresolved" where the spread exceeds the bound unless every
// change run beats every parent run.
func judge(a, b []float64, lowerBetter bool, bound float64, hasBound bool) verdict {
	v := verdict{qa: quartiles(a), qb: quartiles(b), paired: len(a)}
	v.medA, v.medB = v.qa[1], v.qb[1]
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	if v.medA != 0 {
		v.worse = (v.medB - v.medA) / math.Abs(v.medA)
		if !lowerBetter {
			v.worse = -v.worse
		}
		v.spread = math.Max(v.qa[2]-v.qa[0], v.qb[2]-v.qb[0]) / math.Abs(v.medA)
	}
	for i := range a {
		if better(b[i], a[i]) {
			v.wins++
		}
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case !hasBound:
		v.verdict = "-"
	case v.spread > bound && allBetter:
		v.verdict = "better"
	case v.spread > bound:
		v.verdict = "unresolved"
	case v.worse > bound:
		v.verdict = "REGRESSION"
	case -v.worse > bound:
		v.verdict = "better"
	default:
		v.verdict = "ok"
	}
	return v
}

func values(recs []record, metric string) ([]float64, bool) {
	var v []float64
	for _, r := range recs {
		m, ok := r.Result.Metrics[metric]
		if !ok {
			return nil, false
		}
		v = append(v, m.Value)
	}
	return v, true
}

// runCompare prints, per workload and metric, each side's median and
// quartiles and a verdict against the bounds in BENCHMARK.json (read
// from the working directory, the repository root), and tests an
// optional claim by the rule of at least 9 wins in 10 pairs with a
// median gap beyond the parent's own quartile distance. Exit code 1 on
// a regression or an unmet claim, 2 when the runs cannot be compared.
func runCompare(patA, patB, claim string, stdout, stderr io.Writer) int {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	recsA, err := loadRecords(patA)
	if err == nil {
		var recsB []record
		if recsB, err = loadRecords(patB); err == nil {
			return compareRecords(spec, recsA, recsB, claim, stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func compareRecords(spec *benchSpec, recsA, recsB []record, claim string, stdout, stderr io.Writer) int {
	type key struct {
		workload string
		trace    bool
	}
	group := func(recs []record) map[key][]record {
		g := make(map[key][]record)
		for _, r := range recs {
			k := key{r.Workload, r.Trace}
			g[k] = append(g[k], r)
		}
		return g
	}
	ga, gb := group(recsA), group(recsB)
	var keys []key
	for k := range ga {
		if _, ok := gb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace && keys[j].trace
	})
	if len(keys) == 0 {
		fmt.Fprintln(stderr, "bench: the two sets share no workload")
		return 2
	}

	var claimMetric, claimWorkload string
	if claim != "" {
		var ok bool
		if claimMetric, claimWorkload, ok = strings.Cut(claim, ":"); !ok {
			fmt.Fprintf(stderr, "bench: -claim wants metric:workload, got %q\n", claim)
			return 2
		}
	}
	code, claimSeen := 0, false
	for _, k := range keys {
		a, b := ga[k], gb[k]
		for _, r := range append(a[1:], b...) {
			if !sameContext(a[0].Context, r.Context) {
				fmt.Fprintf(stderr, "bench: %s: run contexts differ beyond commit and seed; refusing to compare\n", k.workload)
				return 2
			}
		}
		if err := pairRuns(a, b); err != nil {
			fmt.Fprintf(stderr, "bench: %s: cannot pair runs: %v\n", k.workload, err)
			return 2
		}
		mode := "untraced"
		if k.trace {
			mode = "traced"
		}
		fmt.Fprintf(stdout, "%s (%s, %d runs each)\n", k.workload, mode, len(a))
		fmt.Fprintf(stdout, "  %-34s %-32s %-32s %8s %8s %7s  %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "worse", "spread", "bound", "verdict")
		type row struct {
			name, better string
			bound        float64
			hasBound     bool
		}
		var rows []row
		if k.trace {
			for _, m := range spec.PerLayer {
				rows = append(rows, row{m.Name, m.Better, 0, false})
			}
		} else {
			for _, m := range spec.EndToEnd {
				rows = append(rows, row{m.Name, m.Better, m.Bound, true})
			}
		}
		for _, m := range rows {
			va, okA := values(a, m.name)
			vb, okB := values(b, m.name)
			if !okA || !okB {
				fmt.Fprintf(stdout, "  %-34s missing on one side\n", m.name)
				continue
			}
			v := judge(va, vb, m.better != "higher", m.bound, m.hasBound)
			bound := "-"
			if m.hasBound {
				bound = fmt.Sprintf("%.1f%%", 100*m.bound)
			}
			fmt.Fprintf(stdout, "  %-34s %-32s %-32s %7.2f%% %7.2f%% %7s  %s\n", m.name,
				fmt.Sprintf("%.6g [%.6g, %.6g]", v.medA, v.qa[0], v.qa[2]),
				fmt.Sprintf("%.6g [%.6g, %.6g]", v.medB, v.qb[0], v.qb[2]),
				100*v.worse, 100*v.spread, bound, v.verdict)
			if v.verdict == "REGRESSION" {
				code = 1
			}
			if !k.trace && m.name == claimMetric && k.workload == claimWorkload {
				claimSeen = true
				gap := math.Abs(v.medB - v.medA)
				met := v.wins*10 >= 9*v.paired && v.worse < 0 && gap > v.qa[2]-v.qa[0]
				fmt.Fprintf(stdout, "  claim %s on %s: B better in %d of %d pairs, median gap %.6g vs parent quartile distance %.6g: %s\n",
					claimMetric, claimWorkload, v.wins, v.paired, gap, v.qa[2]-v.qa[0], map[bool]string{true: "met", false: "NOT MET"}[met])
				if !met {
					code = 1
				}
			}
		}
	}
	if claim != "" && !claimSeen {
		fmt.Fprintf(stderr, "bench: claim %q names no compared end-to-end metric and workload\n", claim)
		return 2
	}
	return code
}
