// Package analysis is the repo's static-analysis kernel: the minimal
// subset of the golang.org/x/tools/go/analysis API that the remspanlint
// analyzers need, implemented on the standard library alone so the
// module stays dependency-free (the build environment has no module
// proxy, so x/tools itself cannot be vendored; the types below mirror
// its shapes field-for-field, making a future swap mechanical).
//
// An Analyzer inspects one type-checked package through a Pass and
// reports Diagnostics. The one driver is cmd/remspanlint, a `go vet
// -vettool` unitchecker; its TestCorpora runs each analyzer's golden
// corpus (testdata/src/a, with `// want` comments) through go vet.
//
// The analyzers communicate with the code under inspection through
// "//remspan:*" comment directives (see directives.go and DESIGN.md
// §3g): hotpath, coldpath, deterministic, orderok, atomic, lockheld.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one analysis: a named rule with a Run function
// applied independently to every package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI output.
	// It must be a valid Go identifier.
	Name string

	// Doc is the one-paragraph description shown by `remspanlint help`.
	Doc string

	// Run applies the analyzer to one package. It reports findings via
	// pass.Report and returns an analyzer-specific result (unused by
	// the driver) or an error for an internal failure — an
	// error fails the whole lint run, it is not a diagnostic.
	Run func(pass *Pass) (interface{}, error)

	// ExportsFacts marks an analyzer that summarizes each package into
	// a fact blob (via Pass.ExportFacts) consumed when analyzing its
	// dependents. The driver runs fact-exporting analyzers on
	// dependency packages too — with diagnostics discarded — so
	// summaries exist before any dependent is checked; the blobs
	// round-trip through the vetx files the go command threads between
	// units.
	ExportsFacts bool
}

func (a *Analyzer) String() string { return a.Name }

// Pass is the interface between one Analyzer run and the driver: one
// type-checked package plus a Report sink.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding. The driver installs it; analyzers
	// call it (or the Reportf helper) any number of times.
	Report func(Diagnostic)

	// ImportFacts returns the fact blob this pass's analyzer exported
	// for the named dependency package, or nil when the dependency has
	// none (stdlib and other out-of-module packages are never
	// summarized, so their absence is normal, not an error).
	ImportFacts func(path string) []byte

	// ExportFacts delivers this package's fact blob for the pass's
	// analyzer to the driver, which persists it for dependent units in
	// the unit's vetx file.
	ExportFacts func(data []byte)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position in the package and a message.
// The driver prefixes the reporting analyzer's name.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// NewInfo returns a types.Info with every lookup map the analyzers use
// populated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Instances:  make(map[*ast.Ident]types.Instance),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
