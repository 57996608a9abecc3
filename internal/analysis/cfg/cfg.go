// Package cfg builds intraprocedural control-flow graphs over Go function
// bodies and runs forward dataflow analyses over them. It is the engine
// behind the determinism analyzer's clock and map taint: syntax is enough
// for "this construct may not appear" rules but not for path properties —
// "this tainted value flows into a float sink", "this clock reading is
// overwritten on every path before it escapes". Those need basic blocks and
// a fixpoint.
//
// The graph is deliberately small: basic blocks of ast.Node slices joined
// by unlabeled edges, one synthetic Exit block, panics terminating their
// block without reaching Exit. Compound statements never appear in a block
// themselves — only their control parts do (an if condition as an
// ast.Expr, a range header as the *ast.RangeStmt whose Body must NOT be
// re-inspected; see Parts). Function literals are opaque: a statement
// containing one appears as a single node and the literal's body is a
// separate function for a separate graph.
package cfg

import (
	"go/ast"
	"go/token"
)

// A Block is a maximal straight-line sequence of nodes. Nodes holds
// statements and control expressions in execution order; Succs the
// possible control transfers out.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// A Graph is the control-flow graph of one function body. Entry is
// Blocks[0]; Exit is the single synthetic exit block (every return and
// every normal fall-off-the-end edges to it). Blocks unreachable from
// Entry (dead code after return, say) are kept in Blocks but carry no
// Preds path from Entry, so dataflow never visits them.
type Graph struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
}

// New builds the control-flow graph of body.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{
		g:      &Graph{},
		labels: map[string]*labelInfo{},
	}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.newBlock()
	b.cur = b.g.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.g.Exit)
	}
	for _, pg := range b.gotos {
		if li := b.labels[pg.label]; li != nil && li.block != nil {
			b.edge(pg.from, li.block)
		}
	}
	for _, blk := range b.g.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return b.g
}

// Parts returns the sub-expressions of a block node that a transfer
// function should inspect. For most nodes that is the node itself; for an
// *ast.RangeStmt (which appears in its loop-header block) it is the range
// operand and the iteration variables — never the loop body, which lives
// in successor blocks.
func Parts(n ast.Node) []ast.Node {
	if r, ok := n.(*ast.RangeStmt); ok {
		var out []ast.Node
		if r.X != nil {
			out = append(out, r.X)
		}
		if r.Key != nil {
			out = append(out, r.Key)
		}
		if r.Value != nil {
			out = append(out, r.Value)
		}
		return out
	}
	return []ast.Node{n}
}

type labelInfo struct {
	block *Block // the block the label marks (goto target)
}

type pendingGoto struct {
	from  *Block
	label string
}

// scope is one enclosing breakable/continuable construct.
type scope struct {
	label        string
	breakTarget  *Block
	contTarget   *Block // nil for switch/select
	fallthroughT *Block // next case block, switch only
}

type builder struct {
	g      *Graph
	cur    *Block // nil while statically unreachable
	scopes []scope
	labels map[string]*labelInfo
	gotos  []pendingGoto
	// pendingLabel is set between a LabeledStmt and its underlying
	// loop/switch so the construct registers labeled break/continue.
	pendingLabel string
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// node appends n to the current block, starting a fresh (unreachable)
// block when control cannot reach here — dead nodes still exist in the
// graph so analyzers can choose to look at them.
func (b *builder) node(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for the construct that owns it.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) push(s scope) { b.scopes = append(b.scopes, s) }
func (b *builder) pop()         { b.scopes = b.scopes[:len(b.scopes)-1] }
func (b *builder) findBreak(label string) *Block {
	for i := len(b.scopes) - 1; i >= 0; i-- {
		s := b.scopes[i]
		if label == "" || s.label == label {
			return s.breakTarget
		}
	}
	return nil
}

func (b *builder) findContinue(label string) *Block {
	for i := len(b.scopes) - 1; i >= 0; i-- {
		s := b.scopes[i]
		if s.contTarget == nil {
			continue // switch/select: continue belongs to an outer loop
		}
		if label == "" || s.label == label {
			return s.contTarget
		}
	}
	return nil
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// The label marks a join point: a fresh block gotos can target.
		lb := b.newBlock()
		if b.cur != nil {
			b.edge(b.cur, lb)
		}
		b.cur = lb
		b.labels[s.Label.Name] = &labelInfo{block: lb}
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.node(s.Init)
		}
		b.node(s.Cond)
		condBlk := b.cur
		thenB := b.newBlock()
		b.edge(condBlk, thenB)
		b.cur = thenB
		b.stmt(s.Body)
		thenEnd := b.cur
		var elseEnd *Block
		if s.Else != nil {
			elseB := b.newBlock()
			b.edge(condBlk, elseB)
			b.cur = elseB
			b.stmt(s.Else)
			elseEnd = b.cur
		} else {
			elseEnd = condBlk
		}
		if thenEnd == nil && elseEnd == nil {
			b.cur = nil
			return
		}
		after := b.newBlock()
		if thenEnd != nil {
			b.edge(thenEnd, after)
		}
		if elseEnd != nil {
			b.edge(elseEnd, after)
		}
		b.cur = after

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.node(s.Init)
		}
		header := b.newBlock()
		if b.cur != nil {
			b.edge(b.cur, header)
		}
		b.cur = header
		if s.Cond != nil {
			b.node(s.Cond)
		}
		after := b.newBlock()
		if s.Cond != nil {
			b.edge(header, after)
		}
		var post *Block
		contTarget := header
		if s.Post != nil {
			post = b.newBlock()
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, header)
			contTarget = post
		}
		body := b.newBlock()
		b.edge(header, body)
		b.push(scope{label: label, breakTarget: after, contTarget: contTarget})
		b.cur = body
		b.stmt(s.Body)
		if b.cur != nil {
			b.edge(b.cur, contTarget)
		}
		b.pop()
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		header := b.newBlock()
		if b.cur != nil {
			b.edge(b.cur, header)
		}
		header.Nodes = append(header.Nodes, s) // the range check; see Parts
		after := b.newBlock()
		b.edge(header, after)
		body := b.newBlock()
		b.edge(header, body)
		b.push(scope{label: label, breakTarget: after, contTarget: header})
		b.cur = body
		b.stmt(s.Body)
		if b.cur != nil {
			b.edge(b.cur, header)
		}
		b.pop()
		b.cur = after

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.node(s.Init)
		}
		if s.Tag != nil {
			b.node(s.Tag)
		}
		b.caseClauses(label, s.Body.List)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.node(s.Init)
		}
		b.node(s.Assign)
		b.caseClauses(label, s.Body.List)

	case *ast.SelectStmt:
		label := b.takeLabel()
		selBlk := b.cur
		if selBlk == nil {
			selBlk = b.newBlock()
			b.cur = selBlk
		}
		if len(s.Body.List) == 0 {
			// select {} blocks forever: no successors.
			b.cur = nil
			return
		}
		after := b.newBlock()
		b.push(scope{label: label, breakTarget: after})
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CommClause)
			caseB := b.newBlock()
			b.edge(selBlk, caseB)
			b.cur = caseB
			if cc.Comm != nil {
				b.node(cc.Comm)
			}
			b.stmtList(cc.Body)
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		}
		b.pop()
		b.cur = after

	case *ast.BranchStmt:
		if b.cur == nil {
			b.cur = b.newBlock()
		}
		switch s.Tok {
		case token.BREAK:
			label := ""
			if s.Label != nil {
				label = s.Label.Name
			}
			if t := b.findBreak(label); t != nil {
				b.edge(b.cur, t)
			}
			b.cur = nil
		case token.CONTINUE:
			label := ""
			if s.Label != nil {
				label = s.Label.Name
			}
			if t := b.findContinue(label); t != nil {
				b.edge(b.cur, t)
			}
			b.cur = nil
		case token.GOTO:
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
			b.cur = nil
		case token.FALLTHROUGH:
			for i := len(b.scopes) - 1; i >= 0; i-- {
				if b.scopes[i].fallthroughT != nil {
					b.edge(b.cur, b.scopes[i].fallthroughT)
					break
				}
			}
			b.cur = nil
		}

	case *ast.ReturnStmt:
		b.node(s)
		b.edge(b.cur, b.g.Exit)
		b.cur = nil

	case *ast.ExprStmt:
		b.node(s)
		if isPanic(s.X) {
			// A panic terminates the path without reaching the normal
			// Exit: missing-unlock style analyses must not count it as a
			// return.
			b.cur = nil
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// Assignments, declarations, sends, inc/dec, defer, go: one node.
		b.node(s)
	}
}

// caseClauses builds the shared switch/type-switch shape: the tag block
// fans out to every case (and to after when there is no default), case
// bodies join at after, fallthrough edges to the next case body.
func (b *builder) caseClauses(label string, clauses []ast.Stmt) {
	tagBlk := b.cur
	if tagBlk == nil {
		tagBlk = b.newBlock()
		b.cur = tagBlk
	}
	after := b.newBlock()

	caseBlocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, clause := range clauses {
		caseBlocks[i] = b.newBlock()
		b.edge(tagBlk, caseBlocks[i])
		if clause.(*ast.CaseClause).List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(tagBlk, after)
	}
	for i, clause := range clauses {
		cc := clause.(*ast.CaseClause)
		var ft *Block
		if i+1 < len(clauses) {
			ft = caseBlocks[i+1]
		}
		b.push(scope{label: label, breakTarget: after, fallthroughT: ft})
		b.cur = caseBlocks[i]
		for _, e := range cc.List {
			b.cur.Nodes = append(b.cur.Nodes, e)
		}
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
		b.pop()
	}
	b.cur = after
}

func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
