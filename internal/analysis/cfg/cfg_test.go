package cfg

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseBody parses src as the body of a function and returns its graph.
func parseBody(t *testing.T, body string) (*Graph, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	file, err := parser.ParseFile(fset, "f.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	fd := file.Decls[0].(*ast.FuncDecl)
	return New(fd.Body), fset
}

// reachable returns the blocks reachable from g.Entry.
func reachable(g *Graph) map[*Block]bool {
	seen := map[*Block]bool{}
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(g.Entry)
	return seen
}

// describe renders a block as "nodes -> succ indices" for failure output.
func describe(g *Graph, fset *token.FileSet) string {
	out := ""
	for _, b := range g.Blocks {
		out += fmt.Sprintf("b%d:", b.Index)
		for _, n := range b.Nodes {
			out += fmt.Sprintf(" %T@%d", n, fset.Position(n.Pos()).Line)
		}
		out += " ->"
		for _, s := range b.Succs {
			out += fmt.Sprintf(" b%d", s.Index)
		}
		out += "\n"
	}
	return out
}

func TestStraightLine(t *testing.T) {
	g, _ := parseBody(t, "x := 1\n_ = x\nreturn")
	if len(g.Entry.Nodes) != 3 {
		t.Fatalf("entry should hold all three statements, got %d", len(g.Entry.Nodes))
	}
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Fatalf("entry must edge straight to exit")
	}
}

func TestIfElseDiamond(t *testing.T) {
	g, fset := parseBody(t, `
x := 0
if x > 0 {
	x = 1
} else {
	x = 2
}
_ = x
return`)
	// entry(cond) -> then, else; both -> join -> exit.
	if n := len(g.Entry.Succs); n != 2 {
		t.Fatalf("cond block should have 2 successors, got %d\n%s", n, describe(g, fset))
	}
	a, b := g.Entry.Succs[0], g.Entry.Succs[1]
	if len(a.Succs) != 1 || len(b.Succs) != 1 || a.Succs[0] != b.Succs[0] {
		t.Fatalf("branches must rejoin at one block\n%s", describe(g, fset))
	}
	join := a.Succs[0]
	if len(join.Succs) != 1 || join.Succs[0] != g.Exit {
		t.Fatalf("join must flow to exit\n%s", describe(g, fset))
	}
}

func TestIfWithoutElse(t *testing.T) {
	g, fset := parseBody(t, `
x := 0
if x > 0 {
	x = 1
}
_ = x`)
	// Cond block edges to both the then-block and the join.
	if n := len(g.Entry.Succs); n != 2 {
		t.Fatalf("cond block should have 2 successors (then, join), got %d\n%s", n, describe(g, fset))
	}
}

func TestForLoopEdges(t *testing.T) {
	g, fset := parseBody(t, `
for i := 0; i < 3; i++ {
	_ = i
}
return`)
	// Find the header (the block holding the condition, with 2 succs:
	// body and after) and verify the back edge body -> post -> header.
	var header *Block
	for b := range reachable(g) {
		if len(b.Succs) == 2 && b != g.Entry {
			header = b
		}
	}
	if header == nil {
		t.Fatalf("no loop header found\n%s", describe(g, fset))
	}
	// One successor chain must lead back to the header (the back edge).
	back := false
	for _, s := range header.Succs {
		cur := s
		for range 4 {
			if cur == header {
				back = true
				break
			}
			if len(cur.Succs) != 1 {
				break
			}
			cur = cur.Succs[0]
		}
	}
	if !back {
		t.Fatalf("no back edge to loop header\n%s", describe(g, fset))
	}
}

func TestInfiniteForHasNoExitEdge(t *testing.T) {
	g, fset := parseBody(t, `
for {
	_ = 1
}`)
	// for{} without break: the function exit must be unreachable.
	if reachable(g)[g.Exit] {
		t.Fatalf("exit reachable through an unbreakable for{}\n%s", describe(g, fset))
	}
}

func TestBreakReachesAfter(t *testing.T) {
	g, fset := parseBody(t, `
for {
	break
}
return`)
	if !reachable(g)[g.Exit] {
		t.Fatalf("break must make the return reachable\n%s", describe(g, fset))
	}
}

func TestSelectFansOut(t *testing.T) {
	g, fset := parseBody(t, `
var a, b chan int
select {
case <-a:
	_ = 1
case <-b:
	_ = 2
}
return`)
	// The select block fans out to exactly the two comm clauses (no
	// default: no direct edge to after).
	var sel *Block
	for b := range reachable(g) {
		if len(b.Succs) == 2 {
			sel = b
		}
	}
	if sel == nil {
		t.Fatalf("no 2-way select fan-out found\n%s", describe(g, fset))
	}
	if a, b := sel.Succs[0], sel.Succs[1]; len(a.Succs) != 1 || a.Succs[0] != b.Succs[0] {
		t.Fatalf("select cases must rejoin\n%s", describe(g, fset))
	}
}

func TestSwitchNoDefaultEdgesToAfter(t *testing.T) {
	g, fset := parseBody(t, `
x := 1
switch x {
case 1:
	return
case 2:
	return
}
_ = x`)
	// Without a default, the tag block must edge to the after block, so
	// `_ = x` stays reachable even though every case returns.
	found := false
	for b := range reachable(g) {
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatalf("statement after switch must stay reachable\n%s", describe(g, fset))
	}
}

func TestReturnTerminatesBlock(t *testing.T) {
	g, _ := parseBody(t, `
return
panic("dead")`)
	// The panic is dead code: present in the graph, unreachable from entry.
	dead := 0
	live := reachable(g)
	for _, b := range g.Blocks {
		if !live[b] && len(b.Nodes) > 0 {
			dead++
		}
	}
	if dead == 0 {
		t.Fatal("dead code after return should live in an unreachable block")
	}
}

func TestPanicDoesNotReachExit(t *testing.T) {
	g, fset := parseBody(t, `
x := 0
if x > 0 {
	panic("boom")
}
return`)
	// The panic path must not edge to Exit: only the normal path does.
	for _, p := range g.Exit.Preds {
		for _, n := range p.Nodes {
			if es, ok := n.(*ast.ExprStmt); ok && isPanic(es.X) {
				t.Fatalf("panic block must not be an exit predecessor\n%s", describe(g, fset))
			}
		}
	}
}

func TestDeferIsANode(t *testing.T) {
	g, _ := parseBody(t, `
defer println("x")
return`)
	found := false
	for _, n := range g.Entry.Nodes {
		if _, ok := n.(*ast.DeferStmt); ok {
			found = true
		}
	}
	if !found {
		t.Fatal("defer statement must appear as a block node")
	}
}

func TestGotoForwardAndBackward(t *testing.T) {
	g, fset := parseBody(t, `
i := 0
loop:
	i++
	if i < 3 {
		goto loop
	}
	goto done
done:
	return`)
	if !reachable(g)[g.Exit] {
		t.Fatalf("forward goto must reach the labeled return\n%s", describe(g, fset))
	}
	// Backward goto: the labeled block must have >= 2 preds (fallthrough
	// from entry + the goto).
	var labeled *Block
	for b := range reachable(g) {
		if len(b.Preds) >= 2 {
			labeled = b
		}
	}
	if labeled == nil {
		t.Fatalf("backward goto should give the label block two predecessors\n%s", describe(g, fset))
	}
}

func TestRangeHeaderUsesParts(t *testing.T) {
	g, _ := parseBody(t, `
m := map[int]float64{}
for k, v := range m {
	_, _ = k, v
}
return`)
	var rng *ast.RangeStmt
	for b := range reachable(g) {
		for _, n := range b.Nodes {
			if r, ok := n.(*ast.RangeStmt); ok {
				rng = r
			}
		}
	}
	if rng == nil {
		t.Fatal("range statement must appear in its header block")
	}
	parts := Parts(rng)
	if len(parts) != 3 {
		t.Fatalf("Parts(range) = %d parts, want X, Key, Value", len(parts))
	}
	for _, p := range parts {
		if _, ok := p.(*ast.BlockStmt); ok {
			t.Fatal("Parts must not expose the range body")
		}
	}
}

// TestForwardConvergence runs a reaching-facts pass over a loop: a fact
// generated inside the loop body must converge into the header's entry
// set (union meet) without oscillation.
func TestForwardConvergence(t *testing.T) {
	g, fset := parseBody(t, `
x := 0
for x < 10 {
	x = x + 1
}
return`)
	const fact = "loop-body-executed"
	in := Forward(g, NewFacts(), func(b *Block, in FactSet) FactSet {
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
				in[fact] = true
			}
		}
		return in
	})
	// The header (condition block) must eventually see the fact via the
	// back edge.
	var header *Block
	for b := range in {
		if len(b.Succs) == 2 {
			header = b
		}
	}
	if header == nil {
		t.Fatalf("no loop header\n%s", describe(g, fset))
	}
	if !in[header][fact] {
		t.Fatalf("fact did not propagate around the back edge; header in-set: %v", in[header])
	}
	// And the exit must see it too.
	if !in[g.Exit][fact] {
		t.Fatal("fact did not reach exit")
	}
}
