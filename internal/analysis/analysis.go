// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass, Diagnostic),
// just large enough to host the repro lint suite. The container this repo
// builds in has no module proxy access, so the real x/tools module cannot
// be fetched; the API below mirrors its shape so the analyzers port to the
// upstream framework mechanically if that ever changes.
//
// The suite enforces conventions no compiler or test run checks —
// conventions the asynchronous-iterations literature identifies as exactly
// the places where implementations silently diverge from the theory (El Baz
// ipps 2022; Assran et al. 2020): hot loops must stay allocation-free,
// every float64 reduction must use the canonical order in internal/vec,
// tuning knobs must flow through the single knob table, and trajectories
// must stay bit-reproducible. See the sibling packages hotpath, vecorder,
// knobdrift and determinism for the individual rules, and cmd/reprolint
// for the driver (a `go vet -vettool`).
package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"
	"strings"
)

// An Analyzer describes one static-analysis rule.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and reprolint's usage.
	Name string
	// Doc is the one-paragraph description reprolint's usage lists.
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

// A Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// ExportImporter returns a types.Importer that resolves packages from gc
// compiler export data files, located by the supplied lookup (import path →
// file). "unsafe" resolves to types.Unsafe.
func ExportImporter(fset *token.FileSet, lookup func(path string) (string, bool)) types.Importer {
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := lookup(path)
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return gc.Import(path)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Check type-checks one package's parsed files with full types.Info maps.
func Check(path string, fset *token.FileSet, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// RunAnalyzers applies every analyzer to pkg, skipping _test.go files, and
// returns the surviving diagnostics tagged with the analyzer that produced
// them.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	var files []*ast.File
	for _, f := range pkg.Files {
		if strings.HasSuffix(pkg.Fset.Position(f.Package).Filename, "_test.go") {
			continue
		}
		files = append(files, f)
	}
	var findings []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		pass.Report = func(d Diagnostic) {
			findings = append(findings, Finding{Analyzer: a.Name, Pos: pkg.Fset.Position(d.Pos), Message: d.Message})
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
		}
	}
	return findings, nil
}

// A Finding is a diagnostic with its analyzer name and resolved position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Analyzer)
}
