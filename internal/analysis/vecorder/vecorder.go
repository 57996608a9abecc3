// Package vecorder forbids hand-rolled float64 reduction loops outside
// repro/internal/vec. Floating-point addition is not associative, so the
// order of partial sums is observable in solver trajectories; internal/vec
// holds the ONE canonical reduction order (the 4-wide unroll in
// kernels.go) that keeps the full, range and componentwise evaluation
// paths mutually bit-identical. A raw
//
//	s += a[i] * b[i]
//
// loop elsewhere silently introduces a second reduction order — exactly
// the class of implementation drift the asynchronous-iterations
// correctness argument cannot survive. Callers must use the vec kernels
// (Dot, Sum, DotStrideAcc, Dense.RowDotAt, ...) instead.
//
// The rule targets cross-iteration reductions only: the accumulator must
// be a scalar declared OUTSIDE the innermost loop carrying the
// accumulation. Element-wise updates (dst[i] += b[i]) and per-iteration
// stencil sums (a sum reset inside the loop body) reassociate nothing and
// are left alone. A reduction whose ad-hoc order is itself the
// specification (rare) may carry an "//repro:vec-ok <reason>" suppression
// comment.
package vecorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the vecorder rule.
var Analyzer = &analysis.Analyzer{
	Name: "vecorder",
	Doc:  "forbid hand-rolled []float64 dot/accumulate reduction loops outside internal/vec (they break the bit-identity contract)",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	path := pass.Pkg.Path()
	if path == "repro/internal/vec" || strings.HasSuffix(path, "/internal/vec") {
		return nil, nil
	}
	// The stand-alone benchmark harness sums timings and counts into
	// statistics; no solver trajectory ever sees those sums.
	if path == "repro/benchmark" {
		return nil, nil
	}
	for _, f := range pass.Files {
		v := &visitor{
			pass:       pass,
			suppressed: analysis.SuppressedLines(pass.Fset, f, "vec-ok"),
		}
		// First pass: collect every loop with its body span (and, for
		// ranges over []float64, the value variable).
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				v.loops = append(v.loops, loop{body: n.Body})
			case *ast.RangeStmt:
				l := loop{body: n.Body}
				if val, ok := n.Value.(*ast.Ident); ok && val.Name != "_" {
					if tv, ok := pass.TypesInfo.Types[n.X]; ok && analysis.IsFloat64Slice(tv.Type) {
						l.rangeVal = pass.TypesInfo.Defs[val]
					}
				}
				v.loops = append(v.loops, l)
			}
			return true
		})
		// Second pass: classify each float64 "+=".
		ast.Inspect(f, func(n ast.Node) bool {
			a, ok := n.(*ast.AssignStmt)
			if ok && a.Tok == token.ADD_ASSIGN && len(a.Lhs) == 1 && len(a.Rhs) == 1 {
				v.check(a)
			}
			return true
		})
	}
	return nil, nil
}

// loop is one for/range statement's body span; rangeVal is the value
// variable when the loop ranges over a []float64.
type loop struct {
	body     *ast.BlockStmt
	rangeVal types.Object
}

func (l loop) contains(pos token.Pos) bool {
	return l.body.Pos() <= pos && pos < l.body.End()
}

type visitor struct {
	pass       *analysis.Pass
	suppressed map[int]bool
	loops      []loop
}

// check classifies "acc += rhs": it is a cross-iteration reduction when
// acc is a scalar float64 declared outside the innermost enclosing loop. A
// product of two slice elements is then a dot-product step, a bare element
// an accumulation step; anything wrapped in calls or further arithmetic is
// left alone (it computes a different quantity, not a raw slice
// reduction).
func (v *visitor) check(n *ast.AssignStmt) {
	acc := ast.Unparen(n.Lhs[0])
	switch acc.(type) {
	case *ast.Ident, *ast.SelectorExpr:
	default:
		return // dst[i] += ...: element-wise, nothing reassociates
	}
	lt, ok := v.pass.TypesInfo.Types[acc]
	if !ok || !isFloat64(lt.Type) {
		return
	}
	inner, enclosed := v.innermost(n.Pos())
	if !enclosed {
		return // not in a loop: a fixed-term sum, not a reduction
	}
	if obj := v.accObject(acc); obj == nil || inner.contains(obj.Pos()) {
		return // accumulator resets every iteration (stencil sums)
	}
	if analysis.Suppressed(v.pass.Fset, n.Pos(), v.suppressed) {
		return
	}
	switch rhs := ast.Unparen(n.Rhs[0]).(type) {
	case *ast.BinaryExpr:
		if rhs.Op != token.MUL {
			return
		}
		if v.isElem(ast.Unparen(rhs.X), n.Pos()) && v.isElem(ast.Unparen(rhs.Y), n.Pos()) {
			v.pass.Reportf(n.Pos(),
				"hand-rolled float64 dot-product reduction; use the repro/internal/vec kernels (vec.Dot, vec.DotStrideAcc, Dense.RowDotAt) so every path shares the canonical reduction order")
		}
	default:
		if v.isElem(ast.Unparen(n.Rhs[0]), n.Pos()) {
			v.pass.Reportf(n.Pos(),
				"hand-rolled float64 accumulation; use vec.Sum (canonical reduction order) instead of an ad-hoc loop")
		}
	}
}

// innermost returns the smallest loop body containing pos.
func (v *visitor) innermost(pos token.Pos) (loop, bool) {
	var best loop
	found := false
	for _, l := range v.loops {
		if !l.contains(pos) {
			continue
		}
		if !found || (best.body.Pos() <= l.body.Pos() && l.body.End() <= best.body.End()) {
			best, found = l, true
		}
	}
	return best, found
}

// accObject resolves the accumulator's variable object: the ident itself,
// or the leftmost ident of a selector chain (s.Mean → s).
func (v *visitor) accObject(e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return v.pass.TypesInfo.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isElem reports whether e reads one float64 element of a slice: an index
// expression over a []float64, or the value variable of an enclosing
// []float64 range loop.
func (v *visitor) isElem(e ast.Expr, at token.Pos) bool {
	switch e := e.(type) {
	case *ast.IndexExpr:
		tv, ok := v.pass.TypesInfo.Types[e.X]
		return ok && analysis.IsFloat64Slice(tv.Type)
	case *ast.Ident:
		obj := v.pass.TypesInfo.Uses[e]
		if obj == nil {
			return false
		}
		for _, l := range v.loops {
			if l.rangeVal == obj && l.contains(at) {
				return true
			}
		}
	}
	return false
}

func isFloat64(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float64
}
