// Package slotbudget enforces the scratch-slot contract documented on
// operators.Scratch and BlockScratchOperator. Scratch slots are a manually
// partitioned space: Vec slots belong to the operator being evaluated
// (ProxGradBF 1, InnerIterated 2, ...), Aux slot 0 is reserved for
// ResidualWith's full-application buffer, and RangeGradSmooth
// implementations use Aux slots >= 1. Nothing at runtime checks the
// partition — two views of the same slot silently alias one buffer, and
// the corruption shows up as a wrong trajectory, not a crash.
//
// Three rules:
//
//   - reservation: scr.Aux(0, ...) may only appear inside ResidualWith;
//   - stale views: binding a slot (v := scr.Vec(0, n)) and re-acquiring
//     the same slot into another name makes the first view an alias of
//     the second; a later read of the first is reported. The check runs
//     on the control-flow graph as a may-analysis, so a re-acquisition on
//     only one branch still taints the join;
//   - dispatch clobbers: a method call through an interface that receives
//     the *Scratch (EvalBlockScratch, GradRange) may consume any Vec slot
//     and any Aux slot >= 1 per the budget, so live views of those slots
//     are stale after the call. Aux slot 0 is protected by the reservation
//     rule and survives.
//
// Slot indices that are not integer constants are not tracked. A
// deliberate aliasing (a view handed off before re-acquisition, say) may
// carry "//repro:slot-ok <reason>" on the offending line or the line
// above.
package slotbudget

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
)

// Analyzer is the scratch-slot rule.
var Analyzer = &analysis.Analyzer{
	Name: "slotbudget",
	Doc:  "scratch Vec/Aux slot usage must respect the documented budget: Aux 0 reserved for ResidualWith, no stale views of re-acquired or dispatched slots",
	Run:  run,
}

// holdsFact: obj is the current view of (kind, slot).
type holdsFact struct {
	kind string // "Vec" or "Aux"
	slot int64
	obj  types.Object
}

// staleFact: obj's view of (kind, slot) no longer owns the buffer.
type staleFact struct {
	kind    string
	slot    int64
	obj     types.Object
	clobber bool // true: interface dispatch; false: re-acquisition
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		suppressed := analysis.SuppressedLines(pass.Fset, f, "slot-ok")
		report := func(pos token.Pos, format string, args ...interface{}) {
			if !analysis.Suppressed(pass.Fset, pos, suppressed) {
				pass.Reportf(pos, format, args...)
			}
		}
		for _, fn := range cfg.Functions([]*ast.File{f}) {
			checkFunc(pass, fn, report)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fn cfg.Function, report func(token.Pos, string, ...interface{})) {
	// Cheap pre-scan: most functions never touch a Scratch.
	touches := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if _, _, ok := scratchCall(pass, call); ok {
				touches = true
			}
		}
		return !touches
	})
	if !touches {
		return
	}

	inResidualWith := fn.Decl != nil && fn.Decl.Name.Name == "ResidualWith"

	g := cfg.New(fn.Body)
	transfer := func(b *cfg.Block, in cfg.FactSet) cfg.FactSet {
		for _, n := range b.Nodes {
			applyNode(pass, n, in, inResidualWith, nil)
		}
		return in
	}
	entry := cfg.Forward(g, cfg.Union, cfg.NewFacts(), transfer)

	for _, b := range g.Blocks {
		in, ok := entry[b]
		if !ok {
			continue
		}
		facts := in.Clone()
		for _, n := range b.Nodes {
			applyNode(pass, n, facts, inResidualWith, report)
		}
	}
}

// applyNode is the transfer function for one block node; with report
// non-nil it also emits findings (reservation breaches at acquisition
// sites, stale reads at identifier uses).
func applyNode(pass *analysis.Pass, n ast.Node, facts cfg.FactSet, inResidualWith bool, report func(token.Pos, string, ...interface{})) {
	// LHS identifiers of assignments processed below: their use position
	// is a (re)binding, not a read of the old view.
	rebound := make(map[*ast.Ident]bool)
	// Acquisition calls consumed by an assignment: skip in the generic
	// CallExpr pass so they do not stale their own fresh binding.
	bound := make(map[*ast.CallExpr]bool)

	cfg.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			for i, lhs := range m.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				rebound[id] = true
				obj := defOrUse(pass, id)
				if obj == nil {
					continue
				}
				// Any rebinding retires the old facts about this name.
				dropFactsFor(facts, obj)
				if i >= len(m.Rhs) {
					continue
				}
				call, ok := ast.Unparen(m.Rhs[i]).(*ast.CallExpr)
				if !ok {
					continue
				}
				kind, slot, ok := scratchCall(pass, call)
				if !ok {
					continue
				}
				bound[call] = true
				staleOthers(facts, kind, slot, obj)
				if id.Name != "_" {
					facts[holdsFact{kind, slot, obj}] = true
				}
			}
			// Blank assignment of an acquisition (`_ = scr.Vec(0, n)`)
			// still re-acquires the slot.
			for i, lhs := range m.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" && i < len(m.Rhs) {
					if call, ok := ast.Unparen(m.Rhs[i]).(*ast.CallExpr); ok {
						if kind, slot, ok := scratchCall(pass, call); ok {
							bound[call] = true
							staleOthers(facts, kind, slot, nil)
						}
					}
				}
			}

		case *ast.CallExpr:
			if kind, slot, ok := scratchCall(pass, m); ok {
				if report != nil && kind == "Aux" && slot == 0 && !inResidualWith {
					report(m.Pos(),
						"scratch Aux slot 0 is reserved for ResidualWith's residual buffer; operator implementations use Aux slots >= 1")
				}
				if !bound[m] {
					// Inline acquisition (passed straight to a callee):
					// no new view to track, but same-slot views go stale.
					staleOthers(facts, kind, slot, nil)
				}
				return true
			}
			if dispatchWithScratch(pass, m) {
				clobberLive(facts)
			}

		case *ast.Ident:
			if report == nil || rebound[m] {
				return true
			}
			obj := pass.TypesInfo.Uses[m]
			if obj == nil {
				return true
			}
			for f := range facts {
				sf, ok := f.(staleFact)
				if !ok || sf.obj != obj {
					continue
				}
				if sf.clobber {
					report(m.Pos(),
						"%q is a stale view of scratch %s slot %d: an interface dispatch received the Scratch and may have consumed the slot; re-acquire after the call or copy out first", m.Name, sf.kind, sf.slot)
				} else {
					report(m.Pos(),
						"%q is a stale view of scratch %s slot %d: the slot was re-acquired after this binding, so both names alias one buffer", m.Name, sf.kind, sf.slot)
				}
				break
			}
		}
		return true
	})
}

// staleOthers retires every view of (kind, slot) other than keep.
func staleOthers(facts cfg.FactSet, kind string, slot int64, keep types.Object) {
	for f := range facts {
		hf, ok := f.(holdsFact)
		if !ok || hf.kind != kind || hf.slot != slot || hf.obj == keep {
			continue
		}
		delete(facts, f)
		facts[staleFact{hf.kind, hf.slot, hf.obj, false}] = true
	}
}

// clobberLive retires every live view a dispatched operator may write:
// all Vec slots, Aux slots >= 1. Aux 0 is protected by the reservation.
func clobberLive(facts cfg.FactSet) {
	for f := range facts {
		hf, ok := f.(holdsFact)
		if !ok || (hf.kind == "Aux" && hf.slot == 0) {
			continue
		}
		delete(facts, f)
		facts[staleFact{hf.kind, hf.slot, hf.obj, true}] = true
	}
}

// dropFactsFor removes every fact about obj (a rebinding of the name).
func dropFactsFor(facts cfg.FactSet, obj types.Object) {
	for f := range facts {
		switch f := f.(type) {
		case holdsFact:
			if f.obj == obj {
				delete(facts, f)
			}
		case staleFact:
			if f.obj == obj {
				delete(facts, f)
			}
		}
	}
}

// scratchCall recognizes operators.Scratch.Vec/Aux calls with a constant
// slot index.
func scratchCall(pass *analysis.Pass, call *ast.CallExpr) (string, int64, bool) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || (fn.Name() != "Vec" && fn.Name() != "Aux") {
		return "", 0, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !isScratchType(sig.Recv().Type()) {
		return "", 0, false
	}
	if len(call.Args) < 1 {
		return "", 0, false
	}
	tv := pass.TypesInfo.Types[call.Args[0]]
	if tv.Value == nil || tv.Value.Kind() != constant.Int {
		return "", 0, false // dynamic slot: untracked
	}
	slot, ok := constant.Int64Val(tv.Value)
	if !ok {
		return "", 0, false
	}
	return fn.Name(), slot, true
}

// dispatchWithScratch reports whether call is a method call through an
// interface that receives a *Scratch argument.
func dispatchWithScratch(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !types.IsInterface(sig.Recv().Type()) {
		return false
	}
	for _, arg := range call.Args {
		if t := pass.TypesInfo.Types[arg].Type; t != nil && isScratchType(t) {
			return true
		}
	}
	return false
}

// isScratchType reports whether t is (a pointer to) operators.Scratch.
func isScratchType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Scratch" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/operators")
}

func defOrUse(pass *analysis.Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}
