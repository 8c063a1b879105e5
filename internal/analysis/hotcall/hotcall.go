// Package hotcall propagates the //remspan:hotpath property through
// the call graph: every function reachable from a hotpath function by
// static calls must itself satisfy hotalloc's allocation rules, or be
// explicitly annotated — //remspan:hotpath (checked at its own
// definition) or //remspan:coldpath (an audited escape hatch).
// hotalloc alone is intraprocedural, so before this analyzer a hotpath
// function calling an unannotated allocating helper passed silently.
//
// The analysis is two-layered:
//
//   - Within the package, internal/analysis/callgraph resolves direct
//     calls, static method calls, and closures tracked to their
//     definitions; each declared function gets a transitive summary
//     (clean, or a representative chain to the first allocation),
//     computed bottom-up with cycle tolerance.
//   - Across packages, summaries travel as facts
//     (internal/analysis/facts): the go command vets a dependency
//     before its dependents and threads its vetx file to them, so a
//     call into it extends the chain through the imported summary
//     instead of stopping at the package boundary.
//
// A diagnostic lands on the offending call site inside the hotpath
// function and prints the full chain:
//
//	call to graph.Grow allocates in hot path: graph.Grow → graph.reserve → file.go:41: make allocates in hot path
//
// Soundness limits, by design: dynamic calls (func values, fields,
// parameters, interface methods) are not followed — the closures and
// bodies flowing into them are checked at their own definitions when
// annotated; calls into packages that exported no facts (the stdlib,
// out-of-module dependencies) are not followed either. Both limits are
// documented in DESIGN.md §3i.
package hotcall

import (
	"fmt"
	"go/types"
	"strings"

	"remspan/internal/analysis"
	"remspan/internal/analysis/callgraph"
	"remspan/internal/analysis/facts"
	"remspan/internal/analysis/hotalloc"
)

var Analyzer = &analysis.Analyzer{
	Name:         "hotcall",
	Doc:          "propagate //remspan:hotpath transitively: reachable callees must be allocation-free or annotated",
	Run:          run,
	ExportsFacts: true,
}

// summary is one local function's transitive allocation behavior.
type summary struct {
	hot, cold bool
	alloc     string   // "" = transitively clean
	chain     []string // callees toward the allocation, outermost first
}

type engine struct {
	pass     *analysis.Pass
	dirs     *analysis.Directives
	graph    *callgraph.Graph
	bodies   map[*types.Func]*hotalloc.Result
	sums     map[*types.Func]*summary
	walking  map[*types.Func]bool
	imported map[string]*facts.Package
}

func run(pass *analysis.Pass) (interface{}, error) {
	e := &engine{
		pass:     pass,
		dirs:     analysis.ScanDirectives(pass),
		graph:    callgraph.Build(pass),
		bodies:   make(map[*types.Func]*hotalloc.Result),
		sums:     make(map[*types.Func]*summary),
		walking:  make(map[*types.Func]bool),
		imported: make(map[string]*facts.Package),
	}

	for _, n := range e.graph.Nodes {
		if _, err := e.summarize(n.Func); err != nil {
			return nil, err
		}
	}
	for _, n := range e.graph.Nodes {
		if e.dirs.Func(n.Decl, analysis.DirHotpath) {
			if err := e.checkHotpath(n); err != nil {
				return nil, err
			}
		}
	}
	if err := e.exportFacts(); err != nil {
		return nil, err
	}
	return nil, nil
}

// body returns the memoized hotalloc result of fn's body.
func (e *engine) body(fn *types.Func) *hotalloc.Result {
	if r, ok := e.bodies[fn]; ok {
		return r
	}
	r := hotalloc.Check(e.pass, e.dirs, e.graph.Node(fn).Decl)
	e.bodies[fn] = r
	return r
}

// summarize computes fn's transitive summary bottom-up. A recursion
// cycle is treated as clean at the back edge: a cycle that allocates
// is still caught through the member whose own body (or acyclic
// callee) holds the allocation.
func (e *engine) summarize(fn *types.Func) (*summary, error) {
	if s, ok := e.sums[fn]; ok {
		return s, nil
	}
	if e.walking[fn] {
		return &summary{}, nil
	}
	e.walking[fn] = true
	defer delete(e.walking, fn)

	n := e.graph.Node(fn)
	s := &summary{
		hot:  e.dirs.Func(n.Decl, analysis.DirHotpath),
		cold: e.dirs.Func(n.Decl, analysis.DirColdpath),
	}
	body := e.body(fn)
	if len(body.Sites) > 0 {
		site := body.Sites[0]
		s.alloc = fmt.Sprintf("%s: %s", e.pass.Fset.Position(site.Pos), site.Msg)
	} else {
	edges:
		for _, edge := range n.Edges {
			if edge.Callee == nil || body.Cold(edge.Site.Pos()) {
				continue
			}
			dirty, err := e.callee(edge.Callee)
			if err != nil {
				return nil, err
			}
			if dirty != nil {
				s.alloc = dirty.alloc
				s.chain = append([]string{display(edge.Callee)}, dirty.chain...)
				break edges
			}
		}
	}
	e.sums[fn] = s
	return s, nil
}

// callee resolves one call target's transitive summary: recursively
// for local functions, through imported facts for external ones. It
// returns nil when the callee is clean, exempt (hotpath/coldpath
// annotated — checked at its own definition), or unknowable (no body,
// no facts).
func (e *engine) callee(fn *types.Func) (*summary, error) {
	fn = fn.Origin() // summaries live on generic declarations
	if e.graph.Node(fn) != nil {
		s, err := e.summarize(fn)
		if err != nil {
			return nil, err
		}
		if s.alloc == "" || s.hot || s.cold {
			return nil, nil
		}
		return s, nil
	}
	if fn.Pkg() == nil || fn.Pkg() == e.pass.Pkg {
		return nil, nil // builtin-adjacent or bodyless local declaration
	}
	pf, err := e.factsFor(fn.Pkg().Path())
	if err != nil {
		return nil, err
	}
	f, ok := pf.Funcs[facts.Key(fn)]
	if !ok || f.Alloc == "" || f.Hotpath || f.Coldpath {
		return nil, nil
	}
	return &summary{alloc: f.Alloc, chain: f.Chain}, nil
}

// factsFor lazily decodes the imported fact blob of one dependency.
func (e *engine) factsFor(path string) (*facts.Package, error) {
	if p, ok := e.imported[path]; ok {
		return p, nil
	}
	p, err := facts.Decode(e.pass.ImportFacts(path))
	if err != nil {
		return nil, fmt.Errorf("package %s: %v", path, err)
	}
	e.imported[path] = p
	return p, nil
}

// checkHotpath reports every call edge of a hotpath function whose
// resolved callee transitively allocates. The root's own body sites
// are hotalloc's findings, not repeated here.
func (e *engine) checkHotpath(n *callgraph.Node) error {
	body := e.body(n.Func)
	for _, edge := range n.Edges {
		if edge.Callee == nil || body.Cold(edge.Site.Pos()) {
			continue
		}
		dirty, err := e.callee(edge.Callee)
		if err != nil {
			return err
		}
		if dirty == nil {
			continue
		}
		chain := append([]string{display(edge.Callee)}, dirty.chain...)
		e.pass.Reportf(edge.Site.Pos(),
			"call to %s allocates in hot path: %s → %s (annotate the callee //remspan:hotpath or //remspan:coldpath, or make it allocation-free)",
			display(edge.Callee), strings.Join(chain, " → "), dirty.alloc)
	}
	return nil
}

// exportFacts serializes the package's non-default summaries for
// dependent units: annotated functions and dirty ones (a clean
// unannotated function equals the no-fact default).
func (e *engine) exportFacts() error {
	out := &facts.Package{Funcs: make(map[string]facts.FuncFact)}
	for _, n := range e.graph.Nodes {
		s := e.sums[n.Func]
		if s == nil || (s.alloc == "" && !s.hot && !s.cold) {
			continue
		}
		out.Funcs[facts.Key(n.Func)] = facts.FuncFact{
			Hotpath:  s.hot,
			Coldpath: s.cold,
			Alloc:    s.alloc,
			Chain:    s.chain,
		}
	}
	data, err := facts.Encode(out)
	if err != nil {
		return err
	}
	e.pass.ExportFacts(data)
	return nil
}

// display renders a function compactly for chains: package-qualified,
// with the module's internal prefix trimmed ("graph.Grow",
// "(*graph.EdgeMarks).AddTree").
func display(fn *types.Func) string {
	name := fn.FullName()
	name = strings.ReplaceAll(name, "remspan/internal/", "")
	return strings.ReplaceAll(name, "remspan/", "")
}
