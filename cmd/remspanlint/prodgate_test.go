package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// The production gate: production code is what production calls.
// prodGate type-checks the non-test files of a set of modules (the
// production program) and reports:
//
//   - every function or method declared under an internal/ directory
//     that production does not reach: all of its uses lie in its own
//     body or in other reported functions (so a cycle of functions that
//     only call each other is reported too);
//   - a production import of a test-only package (internal/reference,
//     internal/testutil), which would link a test oracle or package
//     testing into the binaries;
//   - a TryLock or TryRLock call or a sched.Pool struct field outside
//     internal/sched, a hand-cloned copy of the worker pool's locking;
//   - a map[uint64]struct{} type, a second representation of a spanner
//     H beside graph.EdgeSet.
//
// Nothing in a test-only package is reported by the first rule, and a
// use from one does not count as a production use. A method is exempt
// when its type satisfies, through it, an interface the program uses:
// one declared in a production package or in a package production
// imports (fmt.Stringer and container/heap.Interface, whose methods fmt
// and heap call dynamically), or error. Anything else production does
// not reach must be on the allowlist, with its reason.

// prodAllowlist names the functions production does not reach but
// keeps, keyed by types.Func.FullName, each with its reason.
var prodAllowlist = map[string]string{
	"remspan/internal/graph.NewBallScratch": "the local-view extractor of the planned online stretch " +
		"audit, which prices each check in probes as in the LCA model (Arviv–Levi); until the audit " +
		"calls it, FuzzDistsimEquivalence runs it as the locality oracle",
	"(*remspan/internal/graph.BallScratch).Extract": "the audit's probe, extracting the radius-R " +
		"ball a vertex sees (see graph.NewBallScratch)",
}

// testOnlyPkg reports whether an import path names a package that only
// _test.go files may import.
func testOnlyPkg(path string) bool {
	return strings.HasSuffix(path, "/internal/reference") || strings.HasSuffix(path, "/internal/testutil")
}

// underInternal reports whether an import path lies under an internal/
// directory.
func underInternal(path string) bool {
	return strings.Contains(path, "/internal/")
}

// prodPkg is one package of the production program: its non-test files
// as go list reports them, and their type-checked form.
type prodPkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
	err   error
}

// prodFinding is one report of the gate.
type prodFinding struct {
	pos token.Position
	msg string
}

func (f prodFinding) String() string { return fmt.Sprintf("%s: %s", f.pos, f.msg) }

// prodGate runs the gate over the modules rooted at roots, with the
// given allowlist, and returns its findings in file and line order.
func prodGate(roots []string, allow map[string]string) ([]prodFinding, error) {
	fset := token.NewFileSet()
	pkgs := make(map[string]*prodPkg)
	var order []string
	for _, root := range roots {
		cmd := exec.Command("go", "list", "-f", "{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \"\\t\"}}", "./...")
		cmd.Dir = root
		cmd.Env = append(os.Environ(), "GOWORK=off")
		out, err := cmd.Output()
		if err != nil {
			if ee, ok := err.(*exec.ExitError); ok {
				err = fmt.Errorf("%v\n%s", err, ee.Stderr)
			}
			return nil, fmt.Errorf("go list in %s: %v", root, err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			f := strings.Split(line, "\t")
			p := &prodPkg{path: f[0]}
			for _, name := range f[2:] {
				file, err := parser.ParseFile(fset, filepath.Join(f[1], name), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				p.files = append(p.files, file)
			}
			pkgs[p.path] = p
			order = append(order, p.path)
		}
	}

	std := importer.ForCompiler(fset, "source", nil)
	var imp importerFunc
	check := func(p *prodPkg) {
		p.info = &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
		}
		p.types, p.err = (&types.Config{Importer: imp}).Check(p.path, fset, p.files, p.info)
	}
	imp = func(path string) (*types.Package, error) {
		p, ok := pkgs[path]
		if !ok {
			return std.Import(path)
		}
		if p.info == nil {
			check(p)
		}
		return p.types, p.err
	}
	for _, path := range order {
		if _, err := imp(path); err != nil {
			return nil, err
		}
	}

	var found []prodFinding
	report := func(pos token.Pos, format string, args ...any) {
		found = append(found, prodFinding{fset.Position(pos), fmt.Sprintf(format, args...)})
	}
	ifaces := usedInterfaces(pkgs)

	// Every candidate declaration, and the functions each function's
	// body uses (key nil: package-level code, which always runs).
	decls := make(map[*types.Func]*ast.FuncDecl)
	uses := make(map[*types.Func][]*types.Func)
	entries := []*types.Func{nil}
	for _, path := range order {
		if testOnlyPkg(path) {
			continue
		}
		p := pkgs[path]
		for _, file := range p.files {
			for _, d := range file.Decls {
				var in *types.Func
				if fd, ok := d.(*ast.FuncDecl); ok {
					in = p.info.Defs[fd.Name].(*types.Func)
					if underInternal(path) {
						decls[in] = fd
					}
					if !underInternal(path) || fd.Name.Name == "init" || satisfiesInterface(in, ifaces) {
						entries = append(entries, in)
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := p.info.Uses[id].(*types.Func); ok {
							uses[in] = append(uses[in], fn.Origin())
						}
					}
					return true
				})
			}
		}
	}

	// Production reaches its entry points (package-level code, every
	// function outside internal/, init, interface methods) and whatever
	// a reached function uses. An allowlist entry must name a function
	// production does not reach otherwise, so allowlisted functions
	// become entry points only after that check.
	reached := make(map[*types.Func]bool)
	reach := func(todo []*types.Func) {
		for len(todo) > 0 {
			fn := todo[len(todo)-1]
			todo = todo[:len(todo)-1]
			if !reached[fn] {
				reached[fn] = true
				todo = append(todo, uses[fn]...)
			}
		}
	}
	reach(entries)
	var allowed []*types.Func
	for name := range allow {
		var fn *types.Func
		for d := range decls {
			if d.FullName() == name {
				fn = d
			}
		}
		switch {
		case fn == nil:
			found = append(found, prodFinding{msg: fmt.Sprintf("allowlist entry %s names no function under internal/", name)})
		case reached[fn]:
			report(decls[fn].Name.Pos(), "%s is allowlisted but production reaches it: drop the entry", funcName(fn))
		default:
			allowed = append(allowed, fn)
		}
	}
	reach(allowed)
	for fn, fd := range decls {
		if !reached[fn] {
			report(fd.Name.Pos(), "%s: production never reaches it (only tests or other unreached functions use it)", funcName(fn))
		}
	}

	for _, path := range order {
		p := pkgs[path]
		checkInvariants(p, report)
	}
	sort.Slice(found, func(i, j int) bool {
		a, b := found[i].pos, found[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return found[i].msg < found[j].msg
	})
	return found, nil
}

// checkInvariants reports the three structural rules on one production
// package: no test-only import, pooling only in internal/sched, and no
// hash set of edge keys.
func checkInvariants(p *prodPkg, report func(token.Pos, string, ...any)) {
	inSched := strings.HasSuffix(p.path, "/internal/sched")
	for _, file := range p.files {
		if !testOnlyPkg(p.path) {
			for _, spec := range file.Imports {
				if path := strings.Trim(spec.Path.Value, `"`); testOnlyPkg(path) {
					report(spec.Pos(), "production package %s imports test-only %s", p.path, path)
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if fn, ok := p.info.Uses[n.Sel].(*types.Func); ok && !inSched && (fn.Name() == "TryLock" || fn.Name() == "TryRLock") {
					report(n.Sel.Pos(), "%s outside internal/sched: pool through sched.Env or sched.Shared", fn.Name())
				}
			case *ast.Field:
				t := p.info.Types[n.Type].Type
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				if named, ok := t.(*types.Named); ok && !inSched && named.Obj().Name() == "Pool" &&
					named.Obj().Pkg() != nil && strings.HasSuffix(named.Obj().Pkg().Path(), "/internal/sched") {
					report(n.Type.Pos(), "sched.Pool field outside internal/sched: use sched.Env")
				}
			case *ast.MapType:
				if m, ok := p.info.Types[n].Type.(*types.Map); ok && isEdgeKeySet(m) {
					report(n.Pos(), "hash set of edge keys: use graph.EdgeSet")
				}
			}
			return true
		})
	}
}

// isEdgeKeySet reports whether m is a set of uint64 keys: a map from a
// uint64 to an empty struct.
func isEdgeKeySet(m *types.Map) bool {
	key, ok := m.Key().Underlying().(*types.Basic)
	elem, isStruct := m.Elem().Underlying().(*types.Struct)
	return ok && key.Kind() == types.Uint64 && isStruct && elem.NumFields() == 0
}

// usedInterfaces returns the interfaces a method may be called through
// without a static use: error, and every non-empty interface type
// declared at package level in a production package or in a package
// that one imports.
func usedInterfaces(pkgs map[string]*prodPkg) []*types.Named {
	seen := make(map[*types.Package]bool)
	ifaces := []*types.Named{types.Universe.Lookup("error").Type().(*types.Named)}
	add := func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams() != nil {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, named)
			}
		}
	}
	for path, p := range pkgs {
		if testOnlyPkg(path) {
			continue
		}
		add(p.types)
		for _, dep := range p.types.Imports() {
			add(dep)
		}
	}
	return ifaces
}

// satisfiesInterface reports whether fn is a method through which its
// receiver type implements one of ifaces.
func satisfiesInterface(fn *types.Func, ifaces []*types.Named) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.TypeParams() != nil {
		return false
	}
	for _, iface := range ifaces {
		it := iface.Underlying().(*types.Interface)
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			has = has || it.Method(i).Name() == fn.Name()
		}
		if has && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}

// funcName renders fn as pkg.Name or (*pkg.T).Name, the package by its
// name rather than its path.
func funcName(fn *types.Func) string {
	return strings.Replace(fn.FullName(), fn.Pkg().Path()+".", fn.Pkg().Name()+".", 1)
}
