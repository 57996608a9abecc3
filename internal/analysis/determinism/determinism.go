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
//   - clock escapes: time.Now/Since/Until values are tracked through the
//     control-flow graph (internal/analysis/cfg); they may flow into
//     deadlines, durations and Report timing fields freely, but the
//     moment a time-derived value escapes the time domain into plain
//     numerics (UnixNano, Seconds, a numeric conversion) or seeds a
//     rand.Source, it can reach iterate state and is reported;
//   - map-order escapes: values produced by ranging over a map are
//     tainted, and a float accumulation fed by them (the iteration-order-
//     dependent sum the vecorder analyzer's canonical kernels exist to
//     prevent) is reported.
//
// Scope: internal/vec, internal/operators, internal/core, internal/des,
// internal/runtime, internal/dist, and the scenario builders (scenario.go
// of the root package). A justified exception takes
// "//repro:nondet-ok <reason>" on the offending line or the line above.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
)

// Analyzer is the determinism rule.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "result-affecting packages must not read ambient state (clock, global rand, env, CPU count) or feed map order into float accumulation",
	Run:  run,
}

// resultPackages matches the packages whose computations decide
// trajectories.
var resultPackages = regexp.MustCompile(`(^|/)internal/(vec|operators|core|des|runtime|dist)(/|$)`)

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
	rootScenario := pass.Pkg.Path() == "repro"
	if !resultPackages.MatchString(pass.Pkg.Path()) && !rootScenario {
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
		for _, body := range cfg.Bodies(file) {
			checkFlows(pass, body, report)
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

// checkFlows runs the CFG taint analysis over one function: clock values
// escaping the time domain, and map-iteration values reaching float
// accumulation.
func checkFlows(pass *analysis.Pass, body *ast.BlockStmt, report func(token.Pos, string, ...interface{})) {
	// Pre-scan: functions that neither touch time nor range over maps
	// skip the dataflow entirely.
	interesting := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			if isMapType(pass, n.X) {
				interesting = true
			}
		case *ast.CallExpr:
			if isTimeSource(pass, n) {
				interesting = true
			}
		}
		return !interesting
	})
	if !interesting {
		return
	}

	g := cfg.New(body)
	transfer := func(b *cfg.Block, in cfg.FactSet) cfg.FactSet {
		for _, n := range b.Nodes {
			flowNode(pass, n, in, nil)
		}
		return in
	}
	in := cfg.Forward(g, cfg.NewFacts(), transfer)

	for _, b := range g.Blocks {
		facts, ok := in[b]
		if !ok {
			continue
		}
		facts = facts.Clone()
		for _, n := range b.Nodes {
			flowNode(pass, n, facts, report)
		}
	}
}

// flowNode is the taint transfer function for one block node; with report
// non-nil it also emits findings at sink sites.
func flowNode(pass *analysis.Pass, n ast.Node, facts cfg.FactSet, report func(token.Pos, string, ...interface{})) {
	// Map range headers taint their iteration variables.
	if r, ok := n.(*ast.RangeStmt); ok {
		if isMapType(pass, r.X) {
			for _, v := range []ast.Expr{r.Key, r.Value} {
				if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
					if obj := defOrUse(pass, id); obj != nil {
						facts[taintFact{obj: obj, kind: taintMap}] = true
					}
				}
			}
		}
		return
	}

	cfg.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			// Compound float accumulation fed by map-order taint is THE
			// iteration-order hazard.
			if report != nil && isCompound(m.Tok) && len(m.Lhs) == 1 && isFloat(pass, m.Lhs[0]) {
				for _, rhs := range m.Rhs {
					if tainted(pass, rhs, facts, taintMap) {
						report(m.TokPos, "float accumulation depends on map iteration order; collect keys, sort, then reduce through internal/vec")
					}
				}
			}
			// x = x + v spelled out long-hand.
			if report != nil && m.Tok == token.ASSIGN && len(m.Lhs) == 1 && len(m.Rhs) == 1 && isFloat(pass, m.Lhs[0]) {
				if lhsID, ok := m.Lhs[0].(*ast.Ident); ok {
					if mentions(m.Rhs[0], lhsID.Name) && tainted(pass, m.Rhs[0], facts, taintMap) {
						report(m.TokPos, "float accumulation depends on map iteration order; collect keys, sort, then reduce through internal/vec")
					}
				}
			}
			// Taint propagation through assignment: 1:1 and 1:n forms.
			for i, lhs := range m.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := defOrUse(pass, id)
				if obj == nil {
					continue
				}
				var rhs ast.Expr
				if len(m.Rhs) == len(m.Lhs) {
					rhs = m.Rhs[i]
				} else if len(m.Rhs) == 1 {
					rhs = m.Rhs[0]
				}
				if rhs == nil {
					continue
				}
				for _, kind := range []taintKind{taintTime, taintMap} {
					f := taintFact{obj: obj, kind: kind}
					if tainted(pass, rhs, facts, kind) || (isCompound(m.Tok) && facts[f]) {
						facts[f] = true
					} else if m.Tok == token.ASSIGN || m.Tok == token.DEFINE {
						delete(facts, f)
					}
				}
			}
		case *ast.CallExpr:
			if report == nil {
				return true
			}
			// Sinks. Numeric escape of a time value:
			if sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr); ok && isNumericEscape(sel.Sel.Name) {
				if recvT := pass.TypesInfo.Types[sel.X].Type; recvT != nil && isTimeType(recvT) {
					if tainted(pass, sel.X, facts, taintTime) || isTimeSourceExpr(pass, sel.X) {
						report(m.Pos(), "clock-derived value escapes the time domain via %s; results must not depend on wall-clock readings", sel.Sel.Name)
					}
				}
			}
			// Seeding a rand source from the clock:
			if fn := analysis.Callee(pass.TypesInfo, m); fn != nil && fn.Pkg() != nil &&
				(fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2") &&
				(fn.Name() == "NewSource" || fn.Name() == "Seed") {
				for _, arg := range m.Args {
					if tainted(pass, arg, facts, taintTime) {
						report(m.Pos(), "rand source seeded from the clock; derive seeds from the spec so runs replay bit-identically")
					}
				}
			}
			// Numeric conversion of a tainted time value: float64(d) etc.
			if tv, ok := pass.TypesInfo.Types[m.Fun]; ok && tv.IsType() && isNumericType(tv.Type) && len(m.Args) == 1 {
				if argT := pass.TypesInfo.Types[m.Args[0]].Type; argT != nil && isTimeType(argT) &&
					(tainted(pass, m.Args[0], facts, taintTime) || isTimeSourceExpr(pass, m.Args[0])) {
					report(m.Pos(), "clock-derived value converted to %s; results must not depend on wall-clock readings", tv.Type)
				}
			}
		}
		return true
	})
}

// tainted reports whether any identifier inside e carries the taint kind,
// or e (sub)calls a time source for kind taintTime.
func tainted(pass *analysis.Pass, e ast.Expr, facts cfg.FactSet, kind taintKind) bool {
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
