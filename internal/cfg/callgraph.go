package cfg

import (
	"falseshare/internal/lang/ast"
)

// CallSite records one static call.
type CallSite struct {
	Caller string
	Callee string
	Call   *ast.CallExpr
	// Node is the CFG node containing the call (for loop/branch depth
	// weighting and per-process execution sets).
	Node *Node
}

// CallGraph holds the call relation of the whole program together with
// the per-function CFGs.
type CallGraph struct {
	Graphs map[string]*Graph
	Sites  []*CallSite
	// Callees maps a function to the set of functions it may call.
	Callees map[string]map[string]bool
}

// BuildProgram builds CFGs for every function and the call graph.
func BuildProgram(f *ast.File) *CallGraph {
	cg := &CallGraph{
		Graphs:  map[string]*Graph{},
		Callees: map[string]map[string]bool{},
	}
	for _, fn := range f.Funcs {
		g := Build(fn)
		cg.Graphs[fn.Name] = g
		cg.Callees[fn.Name] = map[string]bool{}
		for _, n := range g.Nodes {
			collect := func(e ast.Expr) {
				ast.Walk(e, func(nd ast.Node) bool {
					if call, ok := nd.(*ast.CallExpr); ok {
						cg.Sites = append(cg.Sites, &CallSite{
							Caller: fn.Name, Callee: call.Name, Call: call, Node: n,
						})
						cg.Callees[fn.Name][call.Name] = true
					}
					return true
				})
			}
			for _, s := range n.Stmts {
				collectStmtCalls(s, collect)
			}
			if n.Cond != nil {
				collect(n.Cond)
			}
		}
	}
	return cg
}

// collectStmtCalls finds call expressions directly in a simple
// statement (without descending into nested statements, which live in
// their own CFG nodes).
func collectStmtCalls(s ast.Stmt, collect func(ast.Expr)) {
	switch x := s.(type) {
	case *ast.DeclStmt:
		if x.Init != nil {
			collect(x.Init)
		}
	case *ast.AssignStmt:
		collect(x.LHS)
		collect(x.RHS)
	case *ast.ExprStmt:
		collect(x.X)
	case *ast.ReturnStmt:
		if x.X != nil {
			collect(x.X)
		}
	case *ast.AcquireStmt:
		collect(x.Lock)
	case *ast.ReleaseStmt:
		collect(x.Lock)
	}
}
