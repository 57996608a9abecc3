// Package determinism guards the repo's core claim: bit-identical
// trajectories across engines, block paths and tuning knobs. That claim
// (what makes signature-keyed Scratch pooling safe in `asyncsolve serve`,
// and what the trajectory pins in blockpath_test.go check by example)
// only holds if the result-affecting packages never read ambient state.
// This analyzer proves the absence of the three ways ambient state leaks
// into results:
//
//   - global sources: package-level math/rand calls (process-shared
//     state), os.Getenv/LookupEnv/Environ, runtime.NumCPU and
//     runtime.GOMAXPROCS are reported wherever they appear, except inside
//     a function whose doc comment carries "//repro:tuning-gate" — the
//     one place (lane-pool sizing) where machine shape may be observed
//     because the knob contract proves it cannot change a trajectory;
//   - clock escapes: time.Now/Since/Until values are tracked through
//     assignments and var declarations; they may flow into deadlines, durations and Report
//     timing fields freely, but the moment a time-derived value escapes
//     the time domain into plain numerics (UnixNano, Seconds, a numeric
//     conversion) or seeds a rand.Source, it can reach iterate state and
//     is reported;
//   - map-order escapes: values produced by ranging over a map are
//     tainted, and a float accumulation fed by them (the iteration-order-
//     dependent sum the vecorder analyzer's canonical kernels exist to
//     prevent) is reported.
//
// The clock and map taint is one gen-only fixpoint per top-level
// declaration, the function literals inside it included: a variable is
// tainted if any assignment or var declaration anywhere in the
// declaration can taint it, so the facts hold every path (and every
// closure capture) at once, and an overwrite never clears them. Then one
// pass reports the sinks.
//
// Scope: every package under internal/ except analysis, experiments,
// metrics, server and trace (which analyse, measure or serve solves but
// decide no trajectory), and the scenario builders (scenario.go of the
// root package). A justified exception takes "//repro:nondet-ok <reason>"
// on the offending line or the line above.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the determinism rule.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "result-affecting packages must not read ambient state (clock, global rand, env, CPU count) or feed map order into float accumulation",
	Run:  run,
}

// internalPackages and observerPackages give the scope: every internal/
// package decides trajectories unless it only analyses, measures or serves
// solves, so a new package is covered by default.
var (
	internalPackages = regexp.MustCompile(`(^|/)internal/`)
	observerPackages = regexp.MustCompile(`(^|/)internal/(analysis|experiments|metrics|server|trace)(/|$)`)
)

// taintKind distinguishes what contaminated a value.
type taintKind int

const (
	taintTime taintKind = iota // derived from time.Now/Since/Until
	taintMap                   // derived from map iteration order
)

// taintFact marks a variable as carrying tainted data.
type taintFact struct {
	obj  types.Object
	kind taintKind
}

func run(pass *analysis.Pass) (interface{}, error) {
	path := pass.Pkg.Path()
	rootScenario := path == "repro"
	if !rootScenario && (!internalPackages.MatchString(path) || observerPackages.MatchString(path)) {
		return nil, nil
	}
	for _, file := range pass.Files {
		if rootScenario && filepath.Base(pass.Fset.Position(file.Package).Filename) != "scenario.go" {
			continue // in the root package only the scenario builders are result-affecting
		}
		suppressed := analysis.SuppressedLines(pass.Fset, file, "nondet-ok")
		report := func(pos token.Pos, format string, args ...interface{}) {
			if !analysis.Suppressed(pass.Fset, pos, suppressed) {
				pass.Reportf(pos, format, args...)
			}
		}
		checkGlobalSources(pass, file, report)
		for _, decl := range file.Decls {
			checkFlows(pass, decl, report)
		}
	}
	return nil, nil
}

// checkGlobalSources reports ambient reads that are never acceptable in
// result-affecting code, wherever they appear on the syntax tree.
func checkGlobalSources(pass *analysis.Pass, file *ast.File, report func(token.Pos, string, ...interface{})) {
	walk := func(n ast.Node, inGate bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "math/rand", "math/rand/v2":
				// Constructors (New, NewSource, NewZipf) build explicit
				// sources — that is the fix, not the bug. Everything else at
				// package level reads or mutates the shared source.
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil &&
					!strings.HasPrefix(fn.Name(), "New") {
					report(call.Pos(),
						"global math/rand.%s reads process-shared state; use a seeded *rand.Rand so runs replay bit-identically", fn.Name())
				}
			case "os":
				switch fn.Name() {
				case "Getenv", "LookupEnv", "Environ":
					if !inGate {
						report(call.Pos(),
							"os.%s reads ambient environment in a result-affecting package (move behind the tuning gate or plumb a knob)", fn.Name())
					}
				}
			case "runtime":
				switch fn.Name() {
				case "NumCPU", "GOMAXPROCS":
					if !inGate {
						report(call.Pos(),
							"runtime.%s makes results depend on machine shape (allowed only under a //repro:tuning-gate function)", fn.Name())
					}
				}
			}
			return true
		})
	}
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok {
			if fd.Body == nil {
				continue
			}
			walk(fd, analysis.HasDirective(fd.Doc, "tuning-gate"))
		} else {
			walk(decl, false)
		}
	}
}

// checkFlows runs the clock and map taint over one top-level declaration:
// facts are only ever added, pass after pass over the whole declaration,
// until the set stops growing; then one more pass reports the sinks.
func checkFlows(pass *analysis.Pass, decl ast.Decl, report func(token.Pos, string, ...interface{})) {
	// Pre-scan: declarations that neither touch time nor range over maps
	// skip the fixpoint entirely.
	interesting := false
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			interesting = interesting || isMapType(pass, n.X)
		case *ast.CallExpr:
			interesting = interesting || isTimeSource(pass, n)
		}
		return !interesting
	})
	if !interesting {
		return
	}

	facts := map[taintFact]bool{}
	for grew := true; grew; {
		before := len(facts)
		ast.Inspect(decl, func(n ast.Node) bool {
			flowNode(pass, n, facts, nil)
			return true
		})
		grew = len(facts) > before
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		flowNode(pass, n, facts, report)
		return true
	})
}

// flowNode adds the taint facts one node generates; with report non-nil it
// also emits findings at sink sites.
func flowNode(pass *analysis.Pass, n ast.Node, facts map[taintFact]bool, report func(token.Pos, string, ...interface{})) {
	switch n := n.(type) {
	case *ast.RangeStmt:
		// Map range headers taint their iteration variables.
		if isMapType(pass, n.X) {
			for _, v := range []ast.Expr{n.Key, n.Value} {
				if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
					if obj := defOrUse(pass, id); obj != nil {
						facts[taintFact{obj: obj, kind: taintMap}] = true
					}
				}
			}
		}
	case *ast.AssignStmt:
		// Compound float accumulation fed by map-order taint is THE
		// iteration-order hazard.
		if report != nil && isCompound(n.Tok) && len(n.Lhs) == 1 && isFloat(pass, n.Lhs[0]) {
			for _, rhs := range n.Rhs {
				if tainted(pass, rhs, facts, taintMap) {
					report(n.TokPos, "float accumulation depends on map iteration order; collect keys, sort, then reduce through internal/vec")
				}
			}
		}
		// x = x + v spelled out long-hand.
		if report != nil && n.Tok == token.ASSIGN && len(n.Lhs) == 1 && len(n.Rhs) == 1 && isFloat(pass, n.Lhs[0]) {
			if lhsID, ok := n.Lhs[0].(*ast.Ident); ok {
				if mentions(n.Rhs[0], lhsID.Name) && tainted(pass, n.Rhs[0], facts, taintMap) {
					report(n.TokPos, "float accumulation depends on map iteration order; collect keys, sort, then reduce through internal/vec")
				}
			}
		}
		// Taint propagation through assignment: 1:1 and 1:n forms.
		for i, lhs := range n.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				gen(pass, id, valueFor(n.Rhs, i, len(n.Lhs)), facts)
			}
		}
	case *ast.ValueSpec:
		for i, id := range n.Names {
			gen(pass, id, valueFor(n.Values, i, len(n.Names)), facts)
		}
	case *ast.CallExpr:
		if report == nil {
			return
		}
		// Sinks. Numeric escape of a time value:
		if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && isNumericEscape(sel.Sel.Name) {
			if recvT := pass.TypesInfo.Types[sel.X].Type; recvT != nil && isTimeType(recvT) {
				if tainted(pass, sel.X, facts, taintTime) || isTimeSourceExpr(pass, sel.X) {
					report(n.Pos(), "clock-derived value escapes the time domain via %s; results must not depend on wall-clock readings", sel.Sel.Name)
				}
			}
		}
		// Seeding a rand source from the clock:
		if fn := analysis.Callee(pass.TypesInfo, n); fn != nil && fn.Pkg() != nil &&
			(fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2") &&
			(fn.Name() == "NewSource" || fn.Name() == "Seed") {
			for _, arg := range n.Args {
				if tainted(pass, arg, facts, taintTime) {
					report(n.Pos(), "rand source seeded from the clock; derive seeds from the spec so runs replay bit-identically")
				}
			}
		}
		// Numeric conversion of a tainted time value: float64(d) etc.
		if tv, ok := pass.TypesInfo.Types[n.Fun]; ok && tv.IsType() && isNumericType(tv.Type) && len(n.Args) == 1 {
			if argT := pass.TypesInfo.Types[n.Args[0]].Type; argT != nil && isTimeType(argT) &&
				(tainted(pass, n.Args[0], facts, taintTime) || isTimeSourceExpr(pass, n.Args[0])) {
				report(n.Pos(), "clock-derived value converted to %s; results must not depend on wall-clock readings", tv.Type)
			}
		}
	}
}

// valueFor is the right-hand side bound to the i-th of k left-hand sides:
// its own in the k:k form, the one call's in the k:1 form.
func valueFor(rhs []ast.Expr, i, k int) ast.Expr {
	switch len(rhs) {
	case k:
		return rhs[i]
	case 1:
		return rhs[0]
	}
	return nil
}

// gen adds to id's variable every taint kind that rhs carries.
func gen(pass *analysis.Pass, id *ast.Ident, rhs ast.Expr, facts map[taintFact]bool) {
	obj := defOrUse(pass, id)
	if obj == nil || id.Name == "_" || rhs == nil {
		return
	}
	for _, kind := range []taintKind{taintTime, taintMap} {
		if tainted(pass, rhs, facts, kind) {
			facts[taintFact{obj: obj, kind: kind}] = true
		}
	}
}

// tainted reports whether any identifier inside e carries the taint kind,
// or e (sub)calls a time source for kind taintTime.
func tainted(pass *analysis.Pass, e ast.Expr, facts map[taintFact]bool, kind taintKind) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if obj := defOrUse(pass, n); obj != nil && facts[taintFact{obj: obj, kind: kind}] {
				found = true
			}
		case *ast.CallExpr:
			if kind == taintTime && isTimeSource(pass, n) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isTimeSource recognizes the clock reads: time.Now, time.Since,
// time.Until.
func isTimeSource(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return false
	}
	switch fn.Name() {
	case "Now", "Since", "Until":
		return true
	}
	return false
}

// isTimeSourceExpr reports whether e is directly a clock read (possibly
// through method chaining on its result).
func isTimeSourceExpr(pass *analysis.Pass, e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			if isTimeSource(pass, x) {
				return true
			}
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				e = sel.X
				continue
			}
			return false
		case *ast.SelectorExpr:
			e = x.X
			continue
		default:
			return false
		}
	}
}

// isNumericEscape lists the time.Time/Duration methods whose results are
// plain numbers.
func isNumericEscape(name string) bool {
	switch name {
	case "Unix", "UnixNano", "UnixMilli", "UnixMicro",
		"Seconds", "Milliseconds", "Microseconds", "Nanoseconds",
		"Minutes", "Hours":
		return true
	}
	return false
}

// isTimeType reports whether t is (or points to) time.Time or
// time.Duration.
func isTimeType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "time" &&
		(obj.Name() == "Time" || obj.Name() == "Duration")
}

func isNumericType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsFloat) != 0 && !isTimeType(t)
}

func isMapType(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.Types[e].Type
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isFloat(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.Types[e].Type
	if t == nil {
		if id, ok := e.(*ast.Ident); ok {
			if obj := defOrUse(pass, id); obj != nil {
				t = obj.Type()
			}
		}
	}
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isCompound(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return true
	}
	return false
}

func mentions(e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

func defOrUse(pass *analysis.Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}
