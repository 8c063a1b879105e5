package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const benchJSONPath = "../../BENCHMARK.json"

func readBenchJSON(t *testing.T) map[string]json.RawMessage {
	t.Helper()
	b, err := os.ReadFile(benchJSONPath)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatal(err)
	}
	return top
}

// entries decodes a list of objects, requiring exactly the given keys.
func entries(t *testing.T, raw json.RawMessage, keys ...string) []map[string]any {
	t.Helper()
	var list []map[string]any
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	for _, e := range list {
		var got []string
		for k := range e {
			got = append(got, k)
		}
		slices.Sort(got)
		want := slices.Clone(keys)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("entry %v: keys %v, want %v", e, got, want)
		}
	}
	return list
}

// TestMetricsMatchBenchmarkJSON pins the program's workloads, metrics
// and units to BENCHMARK.json, and checks every bound is set.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	top := readBenchJSON(t)
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(keys, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", keys, want)
	}
	var paths []string
	if err := json.Unmarshal(top["paths"], &paths); err != nil || !slices.Equal(paths, []string{"cmd/bench"}) {
		t.Errorf("paths = %v (%v), want [cmd/bench]", paths, err)
	}

	var names []string
	for _, w := range entries(t, top["workloads"], "name", "why") {
		names = append(names, w["name"].(string))
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames())
	}

	check := func(list []map[string]any, defs []metricDef, bounded bool) {
		if len(list) != len(defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, program reports %d", len(list), len(defs))
		}
		maxBound := 0.0
		for i := 0; i < len(list) && i < len(defs); i++ {
			e := list[i]
			if e["name"] != defs[i].name || e["unit"] != defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json has %v %v, program %s %s", i, e["name"], e["unit"], defs[i].name, defs[i].unit)
			}
			if b := e["better"]; b != "lower" && b != "higher" {
				t.Errorf("%v: better = %v", e["name"], b)
			}
			if bounded {
				b, ok := e["bound"].(float64)
				if !ok || b <= 0 || b > 0.25 {
					t.Errorf("%v: bound %v not in (0, 0.25]", e["name"], e["bound"])
				}
				maxBound = math.Max(maxBound, b)
			}
		}
		if bounded {
			i := slices.IndexFunc(list, func(e map[string]any) bool { return e["name"] == "setup_s" })
			if i < 0 || list[i]["unit"] != "s" || list[i]["better"] != "lower" || list[i]["bound"] != maxBound {
				t.Errorf("setup_s must be in s, lower-better, with the largest bound")
			}
		}
	}
	check(entries(t, top["end_to_end"], "name", "unit", "better", "bound"), endToEnd, true)
	check(entries(t, top["per_layer"], "name", "unit", "better"), perLayer, false)
}

// runSmoke runs one workload at smoke size and returns its record and
// the last stdout line decoded as the contract's result object.
func runSmoke(t *testing.T, w string, trace int, extra ...string) (record, map[string]json.RawMessage) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := append([]string{"-workload", w, "-smoke", "-seconds", "0.4", "-seed", "3", "-trace", fmt.Sprint(trace)}, extra...)
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%d: exit %d\n%s", w, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%s: %d output lines, want record + result", w, len(lines))
	}
	var rec record
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[1]), &last); err != nil {
		t.Fatal(err)
	}
	return rec, last
}

// TestSmokeLockstep runs every workload untraced and traced at smoke
// size: each run must emit exactly the metrics and units the program
// declares (pinned to BENCHMARK.json above), pass its output checks,
// and — traced — write spans that reconcile with the reported
// unattributed share.
func TestSmokeLockstep(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace=%d", w, trace), func(t *testing.T) {
				spans := filepath.Join(t.TempDir(), "spans.json")
				rec, last := runSmoke(t, w, trace, "-spans", spans)
				var keys []string
				for k := range last {
					keys = append(keys, k)
				}
				slices.Sort(keys)
				if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
					t.Fatalf("result keys %v, want %v", keys, want)
				}
				res := rec.Result
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace == 1 {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("missing metric %s", d.name)
					case m.Unit != d.unit:
						t.Errorf("%s: unit %q, want %q", d.name, m.Unit, d.unit)
					case trace == 0 && !(m.Value > 0):
						t.Errorf("%s = %v; end-to-end metrics are never 0", d.name, m.Value)
					}
				}
				if trace == 1 {
					checkSpans(t, spans, rec)
				}
			})
		}
	}
}

func checkSpans(t *testing.T, path string, rec record) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	op := map[string]string{"static-build": "round"}[rec.Workload]
	if op == "" {
		op = "tick"
	}
	last := rec.Context.CPUArms[len(rec.Context.CPUArms)-1]
	var total, covered int64
	ops, shadows := 0, 0
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
		if s.Name == op && s.CPU == last {
			total += s.End - s.Start
			ops++
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.Shadow {
			shadows++
			if s.Start < p.End {
				t.Errorf("shadow span %+v starts inside its tick %+v", s, p)
			}
			continue
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %+v outside its parent %+v", s, p)
		}
		if p.Name == op && p.CPU == last {
			covered += s.End - s.Start
		}
	}
	if ops == 0 {
		t.Fatalf("no %q spans in the last arm", op)
	}
	if rec.Workload != "static-build" && shadows == 0 {
		t.Errorf("no shadow spans")
	}
	want := float64(total-covered) / float64(total)
	if got := rec.Result.Metrics["bench.unattributed_frac"].Value; math.Abs(got-want) > 1e-9 {
		t.Errorf("bench.unattributed_frac = %v, spans give %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
		{[]float64{3.5, 1.25, 9, 2, 7.75}, [3]float64{1.625, 3.5, 8.375}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// writeRecords writes one record per value of update_p50_ms, seeds 1..n.
func writeRecords(t *testing.T, path string, vals []float64, mutate func(*record)) {
	t.Helper()
	var buf bytes.Buffer
	for i, v := range vals {
		rec := record{
			Context:  runContext{Commit: fmt.Sprint("c", path), GOMAXPROCS: 2, NProc: 2, Seed: int64(i + 1), Seconds: 20, CPUArms: []int{2}},
			Workload: "w",
			Result:   result{Correct: true, Attempted: 1, Metrics: map[string]metric{"update_p50_ms": {Value: v, Unit: "ms"}}},
		}
		if mutate != nil {
			mutate(&rec)
		}
		b, _ := json.Marshal(rec)
		buf.Write(b)
		buf.WriteString("\n{\"correct\":true}\n") // a captured result line, skipped
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	spec := &benchSpec{EndToEnd: []specMetric{{Name: "update_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	parent := []float64{100, 101, 99, 100.5, 99.5, 100, 101, 99, 100.2, 99.8}
	shift := func(d float64) []float64 {
		v := slices.Clone(parent)
		for i := range v {
			v[i] += d
		}
		return v
	}
	for _, c := range []struct {
		name    string
		change  []float64
		mutate  func(*record)
		claim   string
		code    int
		verdict string
	}{
		{"same", shift(0.3), nil, "", 0, " ok"},
		{"within-bound", shift(8), nil, "", 0, " ok"},
		{"regression", shift(20), nil, "", 1, "REGRESSION"},
		{"noisy", []float64{60, 140, 70, 130, 100, 90, 110, 80, 120, 100}, nil, "", 0, "unresolved"},
		{"claim-met", shift(-5), nil, "update_p50_ms:w", 0, "claim update_p50_ms on w: B better in 10 of 10 pairs"},
		{"claim-not-met", shift(-0.1), nil, "update_p50_ms:w", 1, "NOT MET"},
		{"context-differs", shift(0), func(r *record) { r.Context.GOMAXPROCS = 1 }, "", 2, ""},
		{"seeds-differ", shift(0), func(r *record) { r.Context.Seed += 100 }, "", 2, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			a, b := filepath.Join(dir, c.name+"-a.jsonl"), filepath.Join(dir, c.name+"-b.jsonl")
			writeRecords(t, a, parent, nil)
			writeRecords(t, b, c.change, c.mutate)
			recsA, err := loadRecords(a)
			if err != nil {
				t.Fatal(err)
			}
			recsB, err := loadRecords(b)
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			code := compareRecords(spec, recsA, recsB, c.claim, &stdout, &stderr)
			if code != c.code || !strings.Contains(stdout.String(), c.verdict) {
				t.Errorf("exit %d (want %d), output lacks %q:\n%s%s", code, c.code, c.verdict, stdout.String(), stderr.String())
			}
		})
	}
}
