// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass, Diagnostic),
// just large enough to host the repro lint suite. The container this repo
// builds in has no module proxy access, so the real x/tools module cannot
// be fetched; the API below mirrors its shape so the analyzers port to the
// upstream framework mechanically if that ever changes.
//
// The suite enforces conventions no compiler checks — conventions the
// asynchronous-iterations literature identifies as exactly the places
// where implementations silently diverge from the theory (El Baz ipps
// 2022; Assran et al. 2020): hot loops must stay allocation-free, every
// float64 reduction must use the canonical order in internal/vec, tuning
// knobs must flow through the single knob table, trajectories must stay
// bit-reproducible and every lock must be released on every path. See the
// sibling packages hotpath, vecorder, knobdrift, determinism and
// lockdiscipline for the individual rules, and cmd/reprolint for the
// driver (standalone or as a `go vet -vettool`).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static-analysis rule.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and driver flags.
	Name string
	// Doc is the one-paragraph description shown by `reprolint help`.
	Doc string
	// Run applies the rule to a single package, reporting findings
	// through pass.Report. The result value is unused by this driver
	// (kept for x/tools signature compatibility).
	Run func(*Pass) (interface{}, error)
}

// A Pass provides one analyzed package to an Analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // non-test source files only
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// HasDirective reports whether the comment group contains a line whose
// text is exactly "//repro:<name>" (an optional explanation may follow
// after a space).
func HasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	want := "//repro:" + name
	for _, c := range doc.List {
		if c.Text == want || strings.HasPrefix(c.Text, want+" ") {
			return true
		}
	}
	return false
}

// SuppressedLines returns the set of line numbers in file that carry an
// "//repro:<name>" suppression comment. A diagnostic is conventionally
// suppressed when its line, or the line directly above it, is in the set —
// so the escape hatch works both inline and as a lead comment:
//
//	//repro:alloc-ok one-time warmup, reused afterwards
//	buf := make([]float64, n)
func SuppressedLines(fset *token.FileSet, file *ast.File, name string) map[int]bool {
	prefix := "//repro:" + name
	var lines map[int]bool
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if c.Text == prefix || strings.HasPrefix(c.Text, prefix+" ") {
				if lines == nil {
					lines = make(map[int]bool)
				}
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// Suppressed reports whether a diagnostic at pos is covered by a
// suppression line set from SuppressedLines.
func Suppressed(fset *token.FileSet, pos token.Pos, lines map[int]bool) bool {
	if len(lines) == 0 {
		return false
	}
	line := fset.Position(pos).Line
	return lines[line] || lines[line-1]
}

// FuncDecls maps every function and method declared in the pass's files to
// its declaration, keyed by the *types.Func definition object. Analyzers
// use it to chase same-package calls (hotpath transitivity).
func FuncDecls(pass *Pass) map[types.Object]*ast.FuncDecl {
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
				decls[obj] = fd
			}
		}
	}
	return decls
}

// Callee resolves the called function object of a call expression when it
// is a statically-known function or method (nil for builtins, function
// values and interface-typed callees whose target is unknown).
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsFloat64Slice reports whether t is (an alias of) []float64.
func IsFloat64Slice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float64
}
