package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// buildLint compiles the remspanlint binary into a scratch dir so the
// tests can drive it exactly the way it runs in CI: through `go vet
// -vettool`.
func buildLint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "remspanlint")
	if out, err := goCmd(".", "build", "-o", bin, "."); err != nil {
		t.Fatalf("building remspanlint: %v\n%s", err, out)
	}
	return bin
}

// goCmd runs the go command in dir and returns its combined output.
func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	return cmd.CombinedOutput()
}

// vet runs `go vet -vettool=bin ./...` in dir and returns its combined
// output; the exit status is left to the caller's reading of it.
func vet(bin, dir string) ([]byte, error) {
	return goCmd(dir, "vet", "-vettool="+bin, "./...")
}

// sourceFiles opens every go.mod and .go file of the module at root,
// skipping what the go command's ./... skips (testdata, directories
// whose names start with a dot or underscore, nested modules), and
// returns the .go paths. go vet reads these files in a subprocess,
// which the test cache does not see; opening them here is what makes
// an edit to any of them rerun a cached test.
func sourceFiles(t *testing.T, root string) []string {
	t.Helper()
	var goFiles []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		isGo := strings.HasSuffix(path, ".go")
		if !isGo && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		f.Close()
		if isGo {
			goFiles = append(goFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("reading sources under %s: %v", root, err)
	}
	return goFiles
}

// TestVersionHandshake pins the `-V=full` contract the go command uses
// to fingerprint vet tools: at least three fields, the second exactly
// "version", the third not "devel".
func TestVersionHandshake(t *testing.T) {
	bin := buildLint(t)
	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	f := strings.Fields(string(out))
	if len(f) < 3 || f[1] != "version" || f[2] == "devel" {
		t.Fatalf("-V=full output %q does not satisfy the go command's tool-ID contract", out)
	}
}

// lineKey is one source line of a corpus, its file relative to the
// corpus root.
type lineKey struct {
	file string
	line int
}

func (k lineKey) String() string { return fmt.Sprintf("%s:%d", k.file, k.line) }

// diagLine is one diagnostic as the go command prints it, with the
// file relative to the directory vet ran in.
var diagLine = regexp.MustCompile(`^(.+?\.go):(\d+):\d+: (.*) \((\w+)\)$`)

// TestCorpora runs every analyzer of the suite (hotalloc, rcupub,
// detrand and lockpair) over its golden corpus, the module in
// internal/analysis/<name>/testdata/src/a, through `go vet -vettool`
// with the real vet protocol: vet.cfg units and export data, with an
// empty vetx file per unit, since no analyzer reads another package's
// results. A corpus
// marks each expected diagnostic with a `// want "regexp"` comment on
// its line. Every diagnostic must be matched by a want on its line,
// and every want must match a diagnostic; an analyzer with no corpus
// fails, and so does a diagnostic from another analyzer.
func TestCorpora(t *testing.T) {
	bin := buildLint(t)
	for _, a := range analyzers {
		t.Run(a.Name, func(t *testing.T) {
			dir := filepath.Join("..", "..", "internal", "analysis", a.Name, "testdata", "src", "a")
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
				t.Fatalf("analyzer %s has no corpus module: %v", a.Name, err)
			}
			wants := corpusWants(t, dir)
			out, _ := vet(bin, dir)
			got := make(map[lineKey][]string)
			for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
				if line == "" || strings.HasPrefix(line, "# ") {
					continue
				}
				m := diagLine.FindStringSubmatch(line)
				if m == nil {
					t.Errorf("unexpected vet output: %s", line)
					continue
				}
				if m[4] != a.Name {
					t.Errorf("diagnostic from another analyzer in the %s corpus: %s", a.Name, line)
					continue
				}
				n, _ := strconv.Atoi(m[2])
				k := lineKey{filepath.ToSlash(filepath.Clean(m[1])), n}
				got[k] = append(got[k], m[3])
			}
			matchWants(t, wants, got)
		})
	}
}

// matchWants pairs each want with the first unclaimed diagnostic on
// its line that it matches, then reports unmatched wants and leftover
// diagnostics in file and line order.
func matchWants(t *testing.T, wants map[lineKey][]*regexp.Regexp, got map[lineKey][]string) {
	t.Helper()
	var keys []lineKey
	for k := range got {
		keys = append(keys, k)
	}
	for k := range wants {
		if _, ok := got[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		msgs := got[k]
		for _, re := range wants[k] {
			i := 0
			for i < len(msgs) && !re.MatchString(msgs[i]) {
				i++
			}
			if i == len(msgs) {
				t.Errorf("%s: no diagnostic matching %q (got %q)", k, re, got[k])
				continue
			}
			msgs = append(msgs[:i:i], msgs[i+1:]...)
		}
		for _, msg := range msgs {
			t.Errorf("%s: unexpected diagnostic: %s", k, msg)
		}
	}
}

// corpusWants parses every Go file of the corpus and collects its want
// comments by line.
func corpusWants(t *testing.T, dir string) map[lineKey][]*regexp.Regexp {
	t.Helper()
	wants := make(map[lineKey][]*regexp.Regexp)
	fset := token.NewFileSet()
	for _, path := range sourceFiles(t, dir) {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			t.Fatal(err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				res, err := parseWant(c.Text)
				if err != nil {
					t.Fatalf("%s: %v", fset.Position(c.Slash), err)
				}
				if len(res) > 0 {
					k := lineKey{filepath.ToSlash(rel), fset.Position(c.Slash).Line}
					wants[k] = append(wants[k], res...)
				}
			}
		}
	}
	return wants
}

// parseWant extracts the quoted regexps of a `// want "re" "re"`
// comment; an ordinary comment yields none.
func parseWant(text string) ([]*regexp.Regexp, error) {
	rest, ok := strings.CutPrefix(text, "// want ")
	if !ok {
		return nil, nil
	}
	var res []*regexp.Regexp
	for rest = strings.TrimSpace(rest); rest != ""; rest = strings.TrimSpace(rest) {
		q, err := strconv.QuotedPrefix(rest)
		if err != nil {
			return nil, fmt.Errorf("want clause must be quoted regexps: %s", rest)
		}
		lit, _ := strconv.Unquote(q)
		re, err := regexp.Compile(lit)
		if err != nil {
			return nil, fmt.Errorf("bad want regexp %q: %v", lit, err)
		}
		res = append(res, re)
		rest = rest[len(q):]
	}
	if len(res) == 0 {
		return nil, fmt.Errorf("want comment with no regexps")
	}
	return res, nil
}

// TestRepoIsLintClean runs the gate over the whole repository: the
// annotated hot paths and atomic fields, deterministic packages and
// lock sites must all be clean.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo vet is not a -short test")
	}
	root := filepath.Join("..", "..")
	sourceFiles(t, root)
	bin := buildLint(t)
	if out, err := vet(bin, root); err != nil {
		t.Fatalf("repo is not remspanlint-clean: %v\n%s", err, out)
	}
}

// TestNoTestOnlyProductionCode runs the production gate (prodGate)
// over the program: the non-test files of module remspan and of the
// cmd/bench module. Opening every source file of both modules is what
// makes an edit rerun a cached pass.
func TestNoTestOnlyProductionCode(t *testing.T) {
	roots := []string{filepath.Join("..", ".."), filepath.Join("..", "bench")}
	for _, root := range roots {
		sourceFiles(t, root)
	}
	found, err := prodGate(roots, prodAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Error(f)
	}
}

// TestProdGateCorpus pins the production gate on its corpus: module
// testdata/src/a and the module nested at its cmd/b, which requires a
// through a replace. Every finding must be matched by a want comment on
// its line, and every want by a finding.
func TestProdGateCorpus(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src", "a"))
	if err != nil {
		t.Fatal(err)
	}
	roots := []string{root, filepath.Join(root, "cmd", "b")}
	wants := make(map[lineKey][]*regexp.Regexp)
	for _, r := range roots {
		prefix, _ := filepath.Rel(root, r)
		for k, res := range corpusWants(t, r) {
			k.file = filepath.ToSlash(filepath.Join(prefix, k.file))
			wants[k] = append(wants[k], res...)
		}
	}
	found, err := prodGate(roots, map[string]string{
		"a/internal/x.Kept":  "the allowlisted case",
		"a/internal/x.Stale": "the stale-entry case",
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[lineKey][]string)
	for _, f := range found {
		rel, err := filepath.Rel(root, f.pos.Filename)
		if f.pos.Filename == "" || err != nil {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		k := lineKey{filepath.ToSlash(rel), f.pos.Line}
		got[k] = append(got[k], f.msg)
	}
	matchWants(t, wants, got)
}
