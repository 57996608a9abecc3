// Package hotpath flags allocating constructs inside functions annotated
// "//repro:hotpath". The repo's steady-state hot loops (engine phases,
// EvalBlock dispatch, vec kernels, scratch fast paths) were made
// allocation-free in PRs 2/5/7 and pinned by a handful of
// testing.AllocsPerRun tests — this analyzer makes the invariant
// structural by rejecting the constructs that allocate (or may allocate)
// at every annotated call site:
//
//   - composite literals, make and new (struct/array literals copied into
//     existing memory — `*e = event{}` — are exempt: a zeroing store, not
//     an allocation)
//   - append (it may grow its backing array)
//   - closure creation (func literals)
//   - boxing a concrete value into an interface (call arguments,
//     assignments and conversions), unless the value is pointer-shaped: a
//     pointer, map, channel or func is stored in the interface word itself
//   - fmt and log calls (formatting boxes and allocates)
//   - map iteration (hidden iterator; nondeterministic order also breaks
//     reproducibility)
//
// The annotation is transitive through small same-package helpers (at most
// 60 AST nodes — the kind the compiler inlines), so factoring a hot loop
// body into little functions cannot hide an allocation. A construct that
// is provably cold (one-time lazy init on a guarded branch) may be
// suppressed with an "//repro:alloc-ok <reason>" comment on its line or
// the line above.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the hotpath rule.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "flag allocating constructs in //repro:hotpath functions (transitively through small helpers)",
	Run:  run,
}

// inlineBudget is the maximum AST node count of a same-package helper that
// a hot function's annotation propagates into, mirroring the compiler's
// notion of a small inlinable function.
const inlineBudget = 60

func run(pass *analysis.Pass) (interface{}, error) {
	decls := analysis.FuncDecls(pass)

	suppressed := make(map[string]map[int]bool)
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Package).Filename
		suppressed[name] = analysis.SuppressedLines(pass.Fset, f, "alloc-ok")
	}

	// Roots: annotated declarations, in source order.
	type hot struct {
		decl *ast.FuncDecl
		root string // annotated root function name
	}
	var work []hot
	seen := make(map[*ast.FuncDecl]bool)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if analysis.HasDirective(fd.Doc, "hotpath") {
				work = append(work, hot{fd, fd.Name.Name})
				seen[fd] = true
			}
		}
	}

	// Propagate through small same-package helpers, breadth-first.
	for i := 0; i < len(work); i++ {
		h := work[i]
		ast.Inspect(h.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() != pass.Pkg {
				return true
			}
			fd := decls[fn]
			if fd == nil || fd.Body == nil || seen[fd] {
				return true
			}
			if nodeCount(fd.Body) > inlineBudget {
				return true
			}
			seen[fd] = true
			work = append(work, hot{fd, h.root})
			return true
		})
	}

	for _, h := range work {
		c := &checker{pass: pass, fn: h.decl, root: h.root, suppressed: suppressed}
		ast.Inspect(h.decl.Body, c.visit)
	}
	return nil, nil
}

type checker struct {
	pass       *analysis.Pass
	fn         *ast.FuncDecl
	root       string
	suppressed map[string]map[int]bool
	// zeroing marks struct/array composite literals assigned into existing
	// memory (`*e = event{}`): a value copy, not an allocation.
	zeroing map[*ast.CompositeLit]bool
}

func (c *checker) report(pos token.Pos, what string) {
	p := c.pass.Fset.Position(pos)
	if analysis.Suppressed(c.pass.Fset, pos, c.suppressed[p.Filename]) {
		return
	}
	if c.fn.Name.Name == c.root {
		c.pass.Reportf(pos, "%s in //repro:hotpath function %q", what, c.root)
	} else {
		c.pass.Reportf(pos, "%s in %q, reached from //repro:hotpath function %q",
			what, c.fn.Name.Name, c.root)
	}
}

func (c *checker) visit(n ast.Node) bool {
	info := c.pass.TypesInfo
	switch n := n.(type) {
	case *ast.CompositeLit:
		if !c.zeroing[n] {
			c.report(n.Pos(), "composite literal allocates")
		}
	case *ast.FuncLit:
		c.report(n.Pos(), "closure allocates")
	case *ast.RangeStmt:
		if tv, ok := info.Types[n.X]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				c.report(n.Pos(), "map iteration (hidden iterator, nondeterministic order)")
			}
		}
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			for i := range n.Lhs {
				c.checkBox(n.Lhs[i], n.Rhs[i])
				if n.Tok == token.ASSIGN {
					c.markZeroing(n.Lhs[i], n.Rhs[i])
				}
			}
		}
	case *ast.CallExpr:
		c.checkCall(n)
	}
	return true
}

// markZeroing records a struct/array composite literal assigned (with `=`,
// not `:=`) into memory that already exists — `*e = event{}`,
// `buf[i] = pair{}`, `s.hdr = header{}`. The literal is copied into place;
// nothing escapes, nothing allocates. Slice and map literals still allocate
// their backing store and stay flagged.
func (c *checker) markZeroing(lhs, rhs ast.Expr) {
	lit, ok := ast.Unparen(rhs).(*ast.CompositeLit)
	if !ok {
		return
	}
	switch ast.Unparen(lhs).(type) {
	case *ast.StarExpr, *ast.IndexExpr, *ast.SelectorExpr, *ast.Ident:
	default:
		return
	}
	tv, ok := c.pass.TypesInfo.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Struct, *types.Array, *types.Basic:
		if c.zeroing == nil {
			c.zeroing = make(map[*ast.CompositeLit]bool)
		}
		c.zeroing[lit] = true
	}
}

// checkBox flags rhs when it is a concrete value stored into an
// interface-typed lhs (boxing anything but a pointer-shaped value may
// allocate, and the hot path may not bet on escape analysis).
func (c *checker) checkBox(lhs, rhs ast.Expr) {
	info := c.pass.TypesInfo
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" || info.Defs[id] != nil {
			return // blank, or a := definition (lhs type is rhs type)
		}
	}
	lt, ok := info.Types[lhs]
	if !ok || !types.IsInterface(lt.Type) {
		return
	}
	rt, ok := info.Types[rhs]
	if !ok || rt.IsNil() || rt.Type == nil || types.IsInterface(rt.Type) || pointerShaped(rt.Type) {
		return
	}
	c.report(rhs.Pos(), "assignment boxes a concrete value into an interface")
}

func (c *checker) checkCall(call *ast.CallExpr) {
	info := c.pass.TypesInfo

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				c.report(call.Pos(), "make allocates")
			case "new":
				c.report(call.Pos(), "new allocates")
			case "append":
				c.report(call.Pos(), "append may grow its backing array")
			}
			return
		}
	}

	// Conversions, including to interface types.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if at, ok := info.Types[call.Args[0]]; ok && !at.IsNil() && !types.IsInterface(at.Type) && !pointerShaped(at.Type) {
				c.report(call.Pos(), "conversion boxes a concrete value into an interface")
			}
		}
		return
	}

	// fmt/log calls.
	if fn := analysis.Callee(info, call); fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "fmt", "log":
			c.report(call.Pos(), fn.Pkg().Path()+"."+fn.Name()+" call allocates (formatting boxes its arguments)")
			return
		}
	}

	// Interface boxing at call arguments.
	sig, ok := typeAsSignature(info, call.Fun)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at, ok := info.Types[arg]
		if !ok || at.IsNil() || at.Type == nil || types.IsInterface(at.Type) || pointerShaped(at.Type) {
			continue
		}
		c.report(arg.Pos(), "argument boxes a concrete value into an interface parameter")
	}
}

// pointerShaped reports whether values of t are a single pointer, which an
// interface holds directly: boxing one copies the pointer, it never
// allocates.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	}
	return false
}

func typeAsSignature(info *types.Info, fun ast.Expr) (*types.Signature, bool) {
	tv, ok := info.Types[fun]
	if !ok || tv.Type == nil {
		return nil, false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	return sig, ok
}

func nodeCount(body *ast.BlockStmt) int {
	n := 0
	ast.Inspect(body, func(node ast.Node) bool {
		if node != nil { // Inspect also fires with nil on post-order pops
			n++
		}
		return true
	})
	return n
}
