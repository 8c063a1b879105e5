package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// mutationRow is one executable row of the mutation table in
// EXPERIMENTS.md: a plausible edit at a production site and exactly
// which checks catch it. The rows below are the ones that decide which
// analyzers the suite keeps: the allocation rows the zero-alloc pins
// catch on their own (6, 7, 9, 10), each kept analyzer's unique catch
// (14, 17, 20, 36) and the maintainer rows only an independent copy of
// G catches (35, and 37 on the live path).
type mutationRow struct {
	id   int
	file string // relative to the module root
	// old must occur exactly once in file; the edit replaces it by new.
	old, new string
	// imports are packages new needs that file does not import yet.
	imports []string
	// analyzers is exactly the set of analyzers that report the edit
	// when the file's package is vetted.
	analyzers []string
	// fail maps package import paths to tests that must fail. When it
	// is nil, every test of the pass packages must pass.
	fail map[string][]string
	pass []string
}

var mutationRows = []mutationRow{
	{
		id:   6, // MISCSR's dense-ball counts made per call
		file: "internal/domtree/csr.go",
		old: `		counts := s.buf2
		//remspan:coldpath grow to the radius high-water mark, then reused
		if cap(counts) < r+1 {
			counts = make([]int32, r+1)
		} else {
			counts = counts[:r+1]
		}
		s.buf2 = counts
`,
		new: `		counts := make([]int32, r+1)
`,
		analyzers: []string{"hotalloc"},
		fail:      map[string][]string{"remspan/internal/spanner": {"TestUnionParallelZeroAlloc"}},
	},
	{
		id:        7, // Store.ApplyBatch copies the dirty list
		file:      "internal/routing/store.go",
		old:       "st.dirtyBuf = append(st.dirtyBuf, st.m.DirtyRoots()...)",
		new:       "st.dirtyBuf = append([]int32(nil), st.m.DirtyRoots()...)",
		analyzers: []string{"hotalloc"},
		fail:      map[string][]string{"remspan/internal/routing": {"TestStoreApplyBatchZeroAlloc"}},
	},
	{
		// Tree.AddPath, unannotated and called from hotpath builders
		// in another package, makes a fresh stack per call.
		id:   9,
		file: "internal/graph/tree.go",
		old: `	stack := t.pathBuf[:0]
	v := int32(x)
	for !t.Contains(int(v)) {
		stack = append(stack, v)
		v = parents[v]
		if v < 0 {
			panic("graph: AddPath walked past the root without joining the tree")
		}
	}
	t.pathBuf = stack
`,
		new: `	stack := make([]int32, 0, 4)
	v := int32(x)
	for !t.Contains(int(v)) {
		stack = append(stack, v)
		v = parents[v]
		if v < 0 {
			panic("graph: AddPath walked past the root without joining the tree")
		}
	}
`,
		fail: map[string][]string{"remspan/internal/spanner": {"TestUnionParallelZeroAlloc"}},
	},
	{
		id:   10, // the table build orders owners with a per-call scratch
		file: "internal/routing/batch.go",
		old:  "order, _ := e.order.Order(g)",
		new:  "order, _ := new(graph.BatchOrderScratch).Order(g)",
		fail: map[string][]string{"remspan/internal/routing": {"TestStoreApplyBatchZeroAlloc", "TestBatchedTablesWidthZeroAlloc"}},
	},
	{
		id:   14, // Writer.ApplyBatch copies *w.st.Epoch() by value
		file: "internal/replica/shipment.go",
		old: `	owners := w.st.DirtyOwners()
	tables := w.st.Epoch().Tables()
`,
		new: `	owners := w.st.DirtyOwners()
	ep := *w.st.Epoch()
	tables := ep.Tables()
`,
		analyzers: []string{"rcupub"},
		pass:      []string{"remspan/internal/replica"},
	},
	{
		id:   17, // applyDelta returns on an unknown change kind with mirrorMu held
		file: "internal/replica/replica.go",
		old: `		case dynamic.RemoveEdge:
			r.phys.RemoveEdge(c.U, c.V)
		}
`,
		new: `		case dynamic.RemoveEdge:
			r.phys.RemoveEdge(c.U, c.V)
		default:
			return
		}
`,
		analyzers: []string{"lockpair"},
		pass:      []string{"remspan/internal/replica"},
	},
	{
		// drainPending stops applying buffered deltas after a
		// wall-clock budget no test tick reaches.
		id:   20,
		file: "internal/replica/replica.go",
		old: `func (r *Replica) drainPending() {
	for {
`,
		new: `func (r *Replica) drainPending() {
	start := time.Now()
	for {
		if time.Since(start) > time.Second {
			return
		}
`,
		imports:   []string{"time"},
		analyzers: []string{"detrand"},
		pass:      []string{"remspan/internal/replica"},
	},
	{
		// applyChange drops an AddEdge with U > V, yet reports it
		// applied and touched.
		id:   35,
		file: "internal/dynamic/dynamic.go",
		old: `	case AddEdge:
		if !g.AddEdge(ch.U, ch.V) {
`,
		new: `	case AddEdge:
		if ch.U > ch.V {
			m.touched.Add(int32(ch.U))
			m.touched.Add(int32(ch.V))
			return true
		}
		if !g.AddEdge(ch.U, ch.V) {
`,
		fail: map[string][]string{
			"remspan/internal/dynamic": {"TestApplyBatchMatchesFull"},
			"remspan/internal/expt":    {"TestChurnE"},
			"remspan/internal/distsim": {"TestRefloodMatchesMaintainer"},
		},
	},
	{
		// Row 35 mirrored: applyChange drops an AddEdge with U < V, the
		// orientation of every pair the mobility tracker emits, so the
		// live pins see it too.
		id:   37,
		file: "internal/dynamic/dynamic.go",
		old: `	case AddEdge:
		if !g.AddEdge(ch.U, ch.V) {
`,
		new: `	case AddEdge:
		if ch.U < ch.V {
			m.touched.Add(int32(ch.U))
			m.touched.Add(int32(ch.V))
			return true
		}
		if !g.AddEdge(ch.U, ch.V) {
`,
		fail: map[string][]string{
			"remspan/internal/dynamic": {"TestApplyBatchMatchesFull", "TestChurnEquivalenceAllBuilders"},
			"remspan/internal/expt":    {"TestChurnE", "TestLiveNetworkE"},
			"remspan/internal/distsim": {"TestRefloodMatchesMaintainer", "TestLiveRunPinnedToMaintainer"},
		},
	},
	{
		// MeasureProfile's fan-out wraps the per-worker visitor in a
		// closure; no zero-alloc pin runs that fan-out.
		id:        36,
		file:      "internal/spanner/verify_batch.go",
		old:       "mw.gbs.SweepSourcesVisit(e.cg, sources, mw.visit)",
		new:       "mw.gbs.SweepSourcesVisit(e.cg, sources, func(v int32, b uint64, dg int32) { mw.visit(v, b, dg) })",
		analyzers: []string{"hotalloc"},
		pass:      []string{"remspan", "remspan/internal/spanner", "remspan/internal/oracle"},
	},
}

// TestMutationRows applies each row's edit through the go command's
// -overlay, with no copy of the tree, then vets the file's package with
// the built tool and runs the row's tests, rows in parallel. A row
// passes only when exactly its analyzers report the edit and its tests
// fail, or, for a row with no failing tests, its packages' tests pass.
func TestMutationRows(t *testing.T) {
	if testing.Short() {
		t.Skip("the mutation rows rebuild and test several packages; not a -short test")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	sourceFiles(t, root)
	bin := buildLint(t)
	for _, row := range mutationRows {
		t.Run("row"+strconv.Itoa(row.id), func(t *testing.T) {
			t.Parallel()
			if (row.fail == nil) == (row.pass == nil) {
				t.Fatal("a row names either the tests that must fail or the packages that must pass")
			}
			overlay := writeOverlay(t, root, row)
			pkg := path.Join("remspan", path.Dir(row.file))
			out, _ := goCmd(root, "vet", "-vettool="+bin, "-overlay="+overlay, pkg)
			if got := reportingAnalyzers(t, out); !slices.Equal(got, row.analyzers) {
				t.Errorf("analyzers reporting the edit: got %v, want %v\n%s", got, row.analyzers, out)
			}
			if row.fail == nil {
				args := append([]string{"test", "-count=1", "-overlay=" + overlay}, row.pass...)
				if out, err := goCmd(root, args...); err != nil {
					t.Errorf("tests of %v must pass: %v\n%s", row.pass, err, out)
				}
				return
			}
			checkFailing(t, root, overlay, row.fail)
		})
	}
}

// writeOverlay applies the row's edit to a copy of its file in a temp
// dir and returns the path of the -overlay JSON that substitutes it.
func writeOverlay(t *testing.T, root string, row mutationRow) string {
	t.Helper()
	src := filepath.Join(root, filepath.FromSlash(row.file))
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if n := strings.Count(text, row.old); n != 1 {
		t.Fatalf("%s: the row's old text occurs %d times, want exactly once", row.file, n)
	}
	text = strings.Replace(text, row.old, row.new, 1)
	for _, imp := range row.imports {
		if n := strings.Count(text, "\nimport (\n"); n != 1 {
			t.Fatalf("%s: %d import blocks, want exactly one to add %q to", row.file, n, imp)
		}
		text = strings.Replace(text, "\nimport (\n", "\nimport (\n\t"+strconv.Quote(imp)+"\n", 1)
	}
	dir := t.TempDir()
	mutated := filepath.Join(dir, filepath.Base(src))
	if err := os.WriteFile(mutated, []byte(text), 0o666); err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(map[string]map[string]string{"Replace": {src: mutated}})
	if err != nil {
		t.Fatal(err)
	}
	overlay := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(overlay, js, 0o666); err != nil {
		t.Fatal(err)
	}
	return overlay
}

// reportingAnalyzers returns the sorted set of analyzers named in vet's
// output; any line that is neither a diagnostic nor a package header
// fails the test.
func reportingAnalyzers(t *testing.T, out []byte) []string {
	t.Helper()
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if line == "" || strings.HasPrefix(line, "# ") {
			continue
		}
		m := diagLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("unexpected vet output: %s", line)
			continue
		}
		names = append(names, m[4])
	}
	sort.Strings(names)
	return slices.Compact(names)
}

// checkFailing runs exactly the named tests of each package under the
// overlay and fails t unless every one of them fails.
func checkFailing(t *testing.T, root, overlay string, fail map[string][]string) {
	t.Helper()
	var pkgs, names []string
	for pkg, tests := range fail {
		pkgs = append(pkgs, pkg)
		names = append(names, tests...)
	}
	sort.Strings(pkgs)
	args := append([]string{"test", "-count=1", "-json", "-overlay=" + overlay,
		"-run", "^(" + strings.Join(names, "|") + ")$"}, pkgs...)
	out, _ := goCmd(root, args...)
	failed := make(map[string]bool)
	var output strings.Builder
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev struct{ Action, Package, Test, Output string }
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			output.WriteString(sc.Text() + "\n") // build errors are not JSON
			continue
		}
		output.WriteString(ev.Output)
		if ev.Action == "fail" && ev.Test != "" {
			failed[ev.Package+"."+ev.Test] = true
		}
	}
	for _, pkg := range pkgs {
		for _, name := range fail[pkg] {
			if !failed[pkg+"."+name] {
				t.Errorf("%s.%s must fail under the edit, and did not", pkg, name)
			}
		}
	}
	if t.Failed() {
		t.Logf("go %s:\n%s", strings.Join(args, " "), output.String())
	}
}
