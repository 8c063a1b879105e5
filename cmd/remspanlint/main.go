// Command remspanlint is the repo's invariant checker: a vet tool
// that runs the internal/analysis suite (hotalloc, rcupub, detrand,
// hotcall, lockpair) under the go command:
//
//	go vet -vettool=$(which remspanlint) ./...
//
// The go command probes the tool with -V=full for a version
// fingerprint, then invokes it once per package with a vet.cfg JSON
// file describing the unit: source files, the import map and
// export-data locations for every dependency. This mirrors the
// golang.org/x/tools unitchecker protocol, reimplemented on the
// standard library because the module cache has no x/tools.
// Diagnostics print to stderr as file:line:col: message (analyzer);
// the exit status is 2 when anything is reported.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"runtime"
	"sort"
	"strings"

	"remspan/internal/analysis"
	"remspan/internal/analysis/detrand"
	"remspan/internal/analysis/facts"
	"remspan/internal/analysis/hotalloc"
	"remspan/internal/analysis/hotcall"
	"remspan/internal/analysis/lockpair"
	"remspan/internal/analysis/rcupub"
)

var analyzers = []*analysis.Analyzer{
	hotalloc.Analyzer,
	rcupub.Analyzer,
	detrand.Analyzer,
	hotcall.Analyzer,
	lockpair.Analyzer,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("remspanlint: ")

	args := os.Args[1:]
	for _, a := range args {
		// The go command fingerprints vet tools by running `tool
		// -V=full` and uses the whole `name version fingerprint` line
		// as the cache key for diagnostics and vetx facts, so the
		// fingerprint embeds a hash of this very binary: rebuilding
		// the tool invalidates cached results.
		if a == "-V=full" || a == "--V=full" {
			fmt.Printf("remspanlint version remspan-suite-2-%s\n", selfID())
			return
		}
		// The go command also probes `tool -flags` for the JSON list
		// of vet flags the tool accepts; this suite has none.
		if a == "-flags" || a == "--flags" {
			fmt.Println("[]")
			return
		}
		if a == "help" || a == "-h" || a == "--help" {
			usage()
			return
		}
	}
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		usage()
		os.Exit(2)
	}
	unitCheck(args[0])
}

// selfID hashes the running executable. Any rebuild of the tool —
// analyzer change, corpus-driven fix, toolchain bump — yields a new
// vet fingerprint without anyone remembering to bump a constant.
func selfID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unhashed"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unhashed"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unhashed"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: go vet -vettool=$(which remspanlint) [packages]\n\nanalyzers:\n")
	for _, a := range analyzers {
		fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
	}
}

// diag pairs a finding with the analyzer that produced it, for the
// "(analyzer)" label on every printed diagnostic.
type diag struct {
	analyzer string
	d        analysis.Diagnostic
}

// runAll applies the suite to one type-checked package. deps maps each
// dependency's import path to its decoded fact envelope; exports
// collects the blobs this package's fact-exporting analyzers produce.
// When factsOnly is set the package is a dependency unit: only
// fact-exporting analyzers run, and their diagnostics (already
// reported when the dependency itself was the target) are discarded.
func runAll(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, deps map[string]facts.Envelope, exports facts.Envelope, factsOnly bool) []diag {
	var out []diag
	for _, a := range analyzers {
		if factsOnly && !a.ExportsFacts {
			continue
		}
		name := a.Name
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report: func(d analysis.Diagnostic) {
				out = append(out, diag{analyzer: name, d: d})
			},
			ImportFacts: func(path string) []byte {
				return deps[path][name]
			},
			ExportFacts: func(data []byte) {
				exports[name] = data
			},
		}
		if _, err := a.Run(pass); err != nil {
			log.Fatalf("analyzer %s: %v", a.Name, err)
		}
	}
	if factsOnly {
		return nil
	}
	sort.Slice(out, func(i, j int) bool { return out[i].d.Pos < out[j].d.Pos })
	return out
}

// vetConfig mirrors the JSON the go command writes for each vet unit
// (cmd/go/internal/work: buildVetConfig).
type vetConfig struct {
	ID           string
	Compiler     string
	Dir          string
	ImportPath   string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string

	ModulePath    string
	ModuleVersion string
	ImportMap     map[string]string
	PackageFile   map[string]string
	Standard      map[string]bool

	ImportsUnsafe bool
	GoVersion     string

	SucceedOnTypecheckFailure bool

	VetxOnly    bool
	VetxOutput  string
	PackageVetx map[string]string
}

func unitCheck(cfgFile string) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		log.Fatalf("parsing %s: %v", cfgFile, err)
	}

	// The go command caches the vetx artifact and requires it to exist
	// even on failure paths, so every early return below writes one.
	// Standard-library units export no facts for this suite, so their
	// artifact is always empty.
	if cfg.isStdUnit() {
		writeVetx(cfg.VetxOutput, nil)
		return
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure || cfg.VetxOnly {
				writeVetx(cfg.VetxOutput, nil)
				return
			}
			log.Fatal(err)
		}
		files = append(files, f)
	}

	conf := types.Config{
		Importer: exportImporter(&cfg, fset),
		Sizes:    types.SizesFor(cfg.Compiler, runtime.GOARCH),
		Error:    func(error) {}, // collect-all; Check returns the first
	}
	if cfg.GoVersion != "" {
		conf.GoVersion = cfg.GoVersion
	}
	info := analysis.NewInfo()
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure || cfg.VetxOnly {
			writeVetx(cfg.VetxOutput, nil)
			return
		}
		log.Fatalf("typechecking %s: %v", cfg.ImportPath, err)
	}

	// PackageVetx lists the fact files of every dependency unit the go
	// command has already scheduled; decode them up front so analyzers
	// can look facts up by import path.
	deps := make(map[string]facts.Envelope, len(cfg.PackageVetx))
	for path, file := range cfg.PackageVetx {
		data, err := os.ReadFile(file)
		if err != nil {
			log.Fatalf("reading facts of %s: %v", path, err)
		}
		env, err := facts.DecodeEnvelope(data)
		if err != nil {
			log.Fatalf("facts of %s: %v", path, err)
		}
		deps[path] = env
	}

	exports := facts.Envelope{}
	diags := runAll(fset, files, pkg, info, deps, exports, cfg.VetxOnly)
	writeVetx(cfg.VetxOutput, exports)
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", fset.Position(d.d.Pos), d.d.Message, d.analyzer)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}

// isStdUnit reports whether the unit under analysis is itself a
// standard-library package. cmd/go's Standard map covers only the
// unit's *dependencies*, never the unit itself, so the unit's own
// origin is judged by whether its sources live under GOROOT.
func (cfg *vetConfig) isStdUnit() bool {
	if cfg.Standard[cfg.ImportPath] {
		return true
	}
	goroot := runtime.GOROOT()
	if goroot == "" || len(cfg.GoFiles) == 0 {
		return false
	}
	return strings.HasPrefix(cfg.GoFiles[0], goroot+string(os.PathSeparator))
}

// writeVetx persists one unit's fact envelope where the go command
// expects its vetx artifact.
func writeVetx(path string, env facts.Envelope) {
	if path == "" {
		return
	}
	data, err := facts.EncodeEnvelope(env)
	if err != nil {
		log.Fatalf("encoding facts: %v", err)
	}
	if err := os.WriteFile(path, data, 0o666); err != nil {
		log.Fatal(err)
	}
}

// exportImporter resolves imports through the unit's ImportMap and
// reads compiler export data listed in PackageFile — the same lookup
// contract importer.ForCompiler expects.
func exportImporter(cfg *vetConfig, fset *token.FileSet) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	base := importer.ForCompiler(fset, compiler, lookup)
	return importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		if mapped, ok := cfg.ImportMap[path]; ok && mapped != "" {
			path = mapped
		}
		return base.Import(path)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
