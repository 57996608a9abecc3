package cfg

import "go/ast"

// Bodies returns every function body in file, of declarations and of
// (arbitrarily nested) literals alike, in source order. A CFG-backed
// analysis builds one graph per body: a literal's body never executes where
// it is written, so it must not leak statements into the enclosing
// function's graph.
func Bodies(file *ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				out = append(out, n.Body)
			}
		case *ast.FuncLit:
			out = append(out, n.Body)
		}
		return true
	})
	return out
}

// Inspect walks the parts of a block node (see Parts) in ast.Inspect
// order, but does not descend into function literals: their bodies belong
// to a different Function's graph.
func Inspect(n ast.Node, f func(ast.Node) bool) {
	for _, part := range Parts(n) {
		ast.Inspect(part, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				f(n) // visible as a value, opaque inside
				return false
			}
			return f(n)
		})
	}
}
