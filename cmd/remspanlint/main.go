// Command remspanlint is the repo's invariant checker: a vet tool
// that runs the internal/analysis suite (hotalloc, rcupub, detrand,
// lockpair) under the go command:
//
//	go vet -vettool=$(which remspanlint) ./...
//
// The go command probes the tool with -V=full for a version
// fingerprint, then invokes it once per package with a vet.cfg JSON
// file describing the unit: source files, the import map and
// export-data locations for every dependency. This mirrors the
// golang.org/x/tools unitchecker protocol, reimplemented on the
// standard library because the module cache has no x/tools. Every
// analyzer checks one package at a time, so a dependency unit
// (VetxOnly) only writes an empty vetx file for the go command to
// cache.
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
	"remspan/internal/analysis/hotalloc"
	"remspan/internal/analysis/lockpair"
	"remspan/internal/analysis/rcupub"
)

var analyzers = []*analysis.Analyzer{
	hotalloc.Analyzer,
	rcupub.Analyzer,
	detrand.Analyzer,
	lockpair.Analyzer,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("remspanlint: ")

	args := os.Args[1:]
	for _, a := range args {
		// The go command fingerprints vet tools by running `tool
		// -V=full` and uses the whole `name version fingerprint` line
		// as the cache key for diagnostics, so the fingerprint embeds
		// a hash of this very binary: rebuilding the tool invalidates
		// cached results.
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

// runAll applies the suite to one type-checked package.
func runAll(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) []diag {
	var out []diag
	for _, a := range analyzers {
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
		}
		if _, err := a.Run(pass); err != nil {
			log.Fatalf("analyzer %s: %v", a.Name, err)
		}
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

	VetxOnly   bool
	VetxOutput string
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

	// No analyzer exports anything, so the vetx artifact is empty. The
	// go command caches it, which spares rerunning the tool on a
	// dependency unit; such a unit needs nothing else.
	writeVetx(cfg.VetxOutput)
	if cfg.VetxOnly {
		return
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
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
		if cfg.SucceedOnTypecheckFailure {
			return
		}
		log.Fatalf("typechecking %s: %v", cfg.ImportPath, err)
	}

	diags := runAll(fset, files, pkg, info)
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", fset.Position(d.d.Pos), d.d.Message, d.analyzer)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}

// writeVetx writes the empty vetx artifact where the go command
// expects it.
func writeVetx(path string) {
	if path == "" {
		return
	}
	if err := os.WriteFile(path, nil, 0o666); err != nil {
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
