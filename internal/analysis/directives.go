package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive names understood by the remspanlint suite. The catalogue —
// meaning, motivating PR, and annotation guidance — lives in DESIGN.md
// §3g; the constants here are the single source of spelling truth.
const (
	// DirHotpath marks a function as a steady-state hot path: hotalloc
	// rejects allocating constructs in its body.
	DirHotpath = "hotpath"
	// DirColdpath exempts one statement (and its subtree) inside a
	// hotpath function: the documented init/grow/error branch that is
	// off the steady state by construction.
	DirColdpath = "coldpath"
	// DirDeterministic marks a package as bit-replay-pinned: detrand
	// rejects wall clocks, global math/rand, and map-order-dependent
	// output in it.
	DirDeterministic = "deterministic"
	// DirOrderOK exempts one map range statement whose iteration order
	// provably cannot reach ordered output (say why in the comment).
	DirOrderOK = "orderok"
	// DirAtomic marks a struct field as atomics-only: rcupub requires
	// a sync/atomic type and rejects by-value copies of the enclosing
	// struct.
	DirAtomic = "atomic"
	// DirLockHeld exempts a function from lockpair: it intentionally
	// returns with the lock held (a lock-handoff API whose release
	// lives in a documented counterpart).
	DirLockHeld = "lockheld"
)

const directivePrefix = "//remspan:"

// Directives indexes every //remspan:* comment of a package by file
// and line, so analyzers can ask "is this node annotated?" without
// re-walking comment lists.
type Directives struct {
	fset   *token.FileSet
	byFile map[string]map[int][]string // filename -> line -> directive names
	pkg    map[string]bool             // directives seen anywhere in the package
}

// ScanDirectives collects the //remspan:* directives of all files in
// the pass.
func ScanDirectives(pass *Pass) *Directives {
	d := &Directives{
		fset:   pass.Fset,
		byFile: make(map[string]map[int][]string),
		pkg:    make(map[string]bool),
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				p := pass.Fset.Position(c.Slash)
				lines := d.byFile[p.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					d.byFile[p.Filename] = lines
				}
				lines[p.Line] = append(lines[p.Line], name)
				d.pkg[name] = true
			}
		}
	}
	return d
}

// parseDirective extracts the directive name from a raw comment text
// ("//remspan:coldpath grow-on-demand" -> "coldpath").
func parseDirective(text string) (string, bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	if rest == "" {
		return "", false
	}
	return rest, true
}

// Package reports whether the directive appears anywhere in the
// package (used for package-scoped markers like "deterministic").
func (d *Directives) Package(name string) bool { return d.pkg[name] }

// onLine reports whether the directive is recorded at exactly
// (filename, line).
func (d *Directives) onLine(filename string, line int, name string) bool {
	for _, n := range d.byFile[filename][line] {
		if n == name {
			return true
		}
	}
	return false
}

// At reports whether the directive annotates the node starting at pos:
// either an end-of-line comment on the same line, or a standalone
// comment on the line directly above.
func (d *Directives) At(pos token.Pos, name string) bool {
	p := d.fset.Position(pos)
	return d.onLine(p.Filename, p.Line, name) || d.onLine(p.Filename, p.Line-1, name)
}

// Func reports whether the directive annotates the function
// declaration: in its doc comment group or directly at/above the func
// keyword.
func (d *Directives) Func(decl *ast.FuncDecl, name string) bool {
	if decl.Doc != nil {
		for _, c := range decl.Doc.List {
			if n, ok := parseDirective(c.Text); ok && n == name {
				return true
			}
		}
	}
	return d.At(decl.Pos(), name)
}

// Field reports whether the directive annotates the struct field: in
// its doc comment or its trailing line comment. There is no
// line-above fallback — inside a struct the parser already attaches a
// standalone comment above a field as its Doc, and a positional
// fallback would bleed the previous field's trailing directive onto
// the next line's field.
func (d *Directives) Field(f *ast.Field, name string) bool {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if n, ok := parseDirective(c.Text); ok && n == name {
				return true
			}
		}
	}
	return false
}
