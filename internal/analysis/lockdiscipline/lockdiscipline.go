// Package lockdiscipline enforces the mutex conventions the concurrent
// planes (the goroutine engines, the TCP data planes, the job server)
// depend on. The paper's asynchronous model tolerates unbounded delays
// but not torn critical sections: a lock held on one return path and
// released on another serializes nothing and deadlocks the next acquirer.
// The race detector only catches the schedules CI happens to run; this
// analyzer proves the discipline on every path of the control-flow graph.
//
// Three rules, all intraprocedural over internal/analysis/cfg graphs:
//
//   - a sync.Mutex/sync.RWMutex locked in a function must be unlocked on
//     every path to every return (a deferred unlock discharges all paths
//     after the defer executes);
//   - an Unlock with no matching Lock on ANY path to it (double unlock,
//     or unlock of a mutex this function never locked while also locking
//     it elsewhere) is reported;
//   - deferring a mutex Lock/Unlock inside a loop is reported: defers run
//     at function exit, not iteration exit, so the lock pyramids.
//
// Copying a mutex-bearing value is go vet's copylocks check, which
// `make lint` runs alongside this suite.
//
// A deliberate handoff (locking here, unlocking in a callee or another
// goroutine) takes an "//repro:lock-ok <reason>" suppression on the Lock
// line.
package lockdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
)

// Analyzer is the lockdiscipline rule.
var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc:  "mutexes must be released on every CFG path, never double-unlocked, never deferred in loops",
	Run:  run,
}

// lockOp is one Lock/Unlock-family call resolved against a trackable
// mutex expression.
type lockOp struct {
	key    string // normalized receiver expression, e.g. "s.mu"
	read   bool   // RLock/RUnlock (reader side of an RWMutex)
	unlock bool
	pos    token.Pos
}

// heldFact is the dataflow fact "key is locked, acquired at pos".
type heldFact struct {
	key  string
	read bool
	pos  token.Pos
}

// deferFact is the dataflow fact "an unlock of key is deferred".
type deferFact struct {
	key  string
	read bool
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		suppressed := analysis.SuppressedLines(pass.Fset, file, "lock-ok")
		for _, fn := range cfg.Functions([]*ast.File{file}) {
			checkFunc(pass, fn, suppressed)
		}
	}
	return nil, nil
}

// checkFunc runs the path-sensitive rules over one function body.
func checkFunc(pass *analysis.Pass, fn cfg.Function, suppressed map[int]bool) {
	// Fast pre-scan: skip the CFG entirely for lock-free functions, and
	// remember which keys this function ever locks (the double-unlock
	// rule only fires for those — a dedicated unlock helper is legal).
	// The same walk finds defers of lock operations inside loops, a
	// purely syntactic property.
	locksKey := map[string]bool{}
	anyOp := false
	var loopDepth int
	var scan func(n ast.Node) bool
	scan = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate function, analyzed separately
		case *ast.ForStmt, *ast.RangeStmt:
			loopDepth++
			ast.Inspect(loopBody(n), scan)
			loopDepth--
			return false
		case *ast.DeferStmt:
			if loopDepth > 0 {
				for _, op := range deferredOps(pass, n) {
					if !analysis.Suppressed(pass.Fset, n.Pos(), suppressed) {
						pass.Reportf(n.Pos(), "defer of %q %s inside a loop runs at function exit, not iteration exit",
							op.key, opName(op))
					}
				}
			}
		}
		if op, ok := asLockOp(pass, n); ok {
			anyOp = true
			if !op.unlock {
				locksKey[lockKeyID(op)] = true
			}
		}
		return true
	}
	ast.Inspect(fn.Body, scan)
	if !anyOp {
		return
	}

	g := cfg.New(fn.Body)

	transfer := func(b *cfg.Block, in cfg.FactSet) cfg.FactSet {
		for _, n := range b.Nodes {
			applyNode(pass, n, in, nil)
		}
		return in
	}
	in := cfg.Forward(g, cfg.Union, cfg.NewFacts(), transfer)

	// Final reporting pass: replay each reachable block with its entry
	// facts, reporting at unlock sites and at returns.
	reported := map[token.Pos]bool{}
	report := func(pos token.Pos, format string, args ...interface{}) {
		if reported[pos] || analysis.Suppressed(pass.Fset, pos, suppressed) {
			return
		}
		reported[pos] = true
		pass.Reportf(pos, format, args...)
	}
	for _, b := range g.Blocks {
		facts, ok := in[b]
		if !ok {
			continue // unreachable
		}
		facts = facts.Clone()
		for _, n := range b.Nodes {
			applyNode(pass, n, facts, func(kind string, op lockOp, held heldFact) {
				switch kind {
				case "double-unlock":
					if locksKey[lockKeyID(op)] {
						report(op.pos, "%s of %q: no path to this statement holds the lock (double unlock?)",
							unlockName(op.read), op.key)
					}
				case "leak":
					report(held.pos, "%s of %q is not released on every path out of %s (missing %s or defer on some branch)",
						lockName(held.read), held.key, fn.Name(), unlockName(held.read))
				}
			})
		}
		// A block that ends the function normally (edges to Exit without
		// a return node) is covered because ReturnStmt nodes live in
		// blocks and the fall-off-the-end case is handled below.
		for _, s := range b.Succs {
			if s == g.Exit && !endsWithReturn(b) {
				reportLeaks(facts, fn, report)
			}
		}
	}
}

// applyNode is the single transfer function: it mutates facts in place
// and, when sink is non-nil, emits findings. Keeping one implementation
// for the fixpoint and the reporting pass guarantees they agree.
func applyNode(pass *analysis.Pass, n ast.Node, facts cfg.FactSet, sink func(kind string, op lockOp, held heldFact)) {
	cfg.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.DeferStmt:
			// A deferred unlock discharges the obligation on every path
			// past this point; a deferred closure is scanned for the
			// unlocks it performs.
			for _, op := range deferredOps(pass, m) {
				if op.unlock {
					facts[deferFact{key: op.key, read: op.read}] = true
				}
			}
			return false // don't re-walk the call as a plain lock op
		case *ast.CallExpr:
			op, ok := asLockOp(pass, m)
			if !ok {
				return true
			}
			if op.unlock {
				released := false
				for f := range facts {
					if h, ok := f.(heldFact); ok && h.key == op.key && h.read == op.read {
						delete(facts, f)
						released = true
					}
				}
				if !released && sink != nil {
					sink("double-unlock", op, heldFact{})
				}
			} else {
				facts[heldFact{key: op.key, read: op.read, pos: op.pos}] = true
			}
		case *ast.ReturnStmt:
			if sink != nil {
				for f := range facts {
					if h, ok := f.(heldFact); ok && !facts[deferFact{key: h.key, read: h.read}] {
						sink("leak", lockOp{}, h)
					}
				}
			}
		}
		return true
	})
}

// reportLeaks flags held locks at a fall-off-the-end function exit.
func reportLeaks(facts cfg.FactSet, fn cfg.Function, report func(token.Pos, string, ...interface{})) {
	for f := range facts {
		if h, ok := f.(heldFact); ok && !facts[deferFact{key: h.key, read: h.read}] {
			report(h.pos, "%s of %q is not released on every path out of %s (missing %s or defer on some branch)",
				lockName(h.read), h.key, fn.Name(), unlockName(h.read))
		}
	}
}

func endsWithReturn(b *cfg.Block) bool {
	if len(b.Nodes) == 0 {
		return false
	}
	_, ok := b.Nodes[len(b.Nodes)-1].(*ast.ReturnStmt)
	return ok
}

// deferredOps extracts the lock operations a defer performs: a direct
// `defer mu.Unlock()` or any unlocks inside a deferred closure body.
func deferredOps(pass *analysis.Pass, d *ast.DeferStmt) []lockOp {
	var ops []lockOp
	if op, ok := asLockOp(pass, d.Call); ok {
		return []lockOp{op}
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if op, ok := asLockOp(pass, n); ok {
				ops = append(ops, op)
			}
			return true
		})
	}
	return ops
}

// loopBody returns the body of a for or range statement.
func loopBody(n ast.Node) *ast.BlockStmt {
	switch n := n.(type) {
	case *ast.ForStmt:
		return n.Body
	case *ast.RangeStmt:
		return n.Body
	}
	return nil
}

// lockKeyID distinguishes the reader and writer sides of one mutex.
func lockKeyID(op lockOp) string {
	if op.read {
		return "r:" + op.key
	}
	return "w:" + op.key
}

// asLockOp recognizes a call as Lock/Unlock/RLock/RUnlock on a trackable
// sync.Mutex/sync.RWMutex expression.
func asLockOp(pass *analysis.Pass, n ast.Node) (lockOp, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return lockOp{}, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	var read, unlock bool
	switch sel.Sel.Name {
	case "Lock":
	case "Unlock":
		unlock = true
	case "RLock":
		read = true
	case "RUnlock":
		read, unlock = true, true
	default:
		return lockOp{}, false
	}
	recv := pass.TypesInfo.Types[sel.X].Type
	if recv == nil || !isSyncMutex(derefMutex(recv)) {
		return lockOp{}, false
	}
	key, ok := exprKey(sel.X)
	if !ok {
		return lockOp{}, false
	}
	return lockOp{key: key, read: read, unlock: unlock, pos: call.Pos()}, true
}

// isSyncMutex reports whether t is exactly sync.Mutex or sync.RWMutex.
func isSyncMutex(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// derefMutex unwraps one pointer level: lock calls go through &mu or a
// *Mutex field equally.
func derefMutex(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// exprKey renders a stable identity for the mutex expression; locks on
// unkeyable expressions (function results, index by variable) are not
// tracked rather than mis-tracked.
func exprKey(e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		base, ok := exprKey(e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	case *ast.StarExpr:
		return exprKey(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return exprKey(e.X)
		}
	case *ast.IndexExpr:
		if lit, ok := e.Index.(*ast.BasicLit); ok {
			base, okb := exprKey(e.X)
			if okb {
				return base + "[" + lit.Value + "]", true
			}
		}
	}
	return "", false
}

func lockName(read bool) string {
	if read {
		return "RLock"
	}
	return "Lock"
}

func unlockName(read bool) string {
	if read {
		return "RUnlock"
	}
	return "Unlock"
}

func opName(op lockOp) string {
	if op.unlock {
		return unlockName(op.read)
	}
	return lockName(op.read)
}
