// Package cfg builds per-function control-flow graphs and the program
// call graph for parc programs.
//
// The graphs drive three consumers in the restructurer:
//   - per-process control-flow analysis (stage 1) annotates nodes with
//     the set of processes that execute them;
//   - non-concurrency analysis (stage 2) partitions the graph of main
//     into phases at barrier nodes;
//   - static profiling weights side effects by loop and branch nesting
//     recorded on each node.
package cfg

import (
	"falseshare/internal/lang/ast"
)

// NodeKind distinguishes the roles a CFG node can play.
type NodeKind int

const (
	// Basic nodes hold straight-line statements.
	Basic NodeKind = iota
	// Branch nodes evaluate a condition; successor 0 is taken when the
	// condition is true, successor 1 when it is false.
	Branch
	// Barrier nodes mark global barrier synchronization points. They
	// delimit the phases found by non-concurrency analysis.
	Barrier
	// Entry and Exit are the unique function entry/exit nodes.
	Entry
	Exit
)

func (k NodeKind) String() string {
	switch k {
	case Basic:
		return "basic"
	case Branch:
		return "branch"
	case Barrier:
		return "barrier"
	case Entry:
		return "entry"
	case Exit:
		return "exit"
	}
	return "node?"
}

// Node is a control-flow graph node.
type Node struct {
	ID    int
	Kind  NodeKind
	Stmts []ast.Stmt // Basic: simple statements (assign/decl/expr/acquire/release/return)
	Cond  ast.Expr   // Branch: the condition
	// CondStmt is the statement the branch condition came from (an
	// *ast.IfStmt, *ast.WhileStmt or *ast.ForStmt).
	CondStmt ast.Stmt
	// Barrier is the barrier statement for Barrier nodes.
	Barrier *ast.BarrierStmt

	Succs []*Node
	Preds []*Node

	// LoopDepth is the number of enclosing loops; BranchDepth the
	// number of enclosing conditionals. Static profiling weighs a
	// node's execution frequency by both (see sideeffect).
	LoopDepth   int
	BranchDepth int
}

func (n *Node) addSucc(s *Node) {
	n.Succs = append(n.Succs, s)
	s.Preds = append(s.Preds, n)
}

// Graph is the CFG of one function.
type Graph struct {
	Fn    *ast.FuncDecl
	Nodes []*Node
	Entry *Node
	Exit  *Node
	// StmtNode maps every simple statement to the node holding it and
	// every control statement to its branch node.
	StmtNode map[ast.Stmt]*Node
}

// Build constructs the CFG for a function.
func Build(fn *ast.FuncDecl) *Graph {
	b := &builder{
		g: &Graph{Fn: fn, StmtNode: map[ast.Stmt]*Node{}},
	}
	b.g.Entry = b.newNode(Entry)
	b.g.Exit = b.newNode(Exit)
	last := b.stmts(b.g.Entry, fn.Body.List, 0, 0)
	if last != nil {
		last.addSucc(b.g.Exit)
	}
	return b.g
}

type builder struct {
	g *Graph
}

func (b *builder) newNode(kind NodeKind) *Node {
	n := &Node{ID: len(b.g.Nodes), Kind: kind}
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

// stmts threads the statement list from pred and returns the node that
// falls through to whatever follows (nil if control cannot fall
// through, e.g. after an unconditional return).
func (b *builder) stmts(pred *Node, list []ast.Stmt, loopDepth, branchDepth int) *Node {
	cur := pred
	for _, s := range list {
		if cur == nil {
			// Unreachable code after a return: still build nodes so
			// analyses see the statements, but do not connect them.
			cur = b.newNode(Basic)
			cur.LoopDepth = loopDepth
			cur.BranchDepth = branchDepth
		}
		cur = b.stmt(cur, s, loopDepth, branchDepth)
	}
	return cur
}

// stmt adds statement s after pred and returns the fall-through node.
func (b *builder) stmt(pred *Node, s ast.Stmt, loopDepth, branchDepth int) *Node {
	switch x := s.(type) {
	case *ast.BlockStmt:
		return b.stmts(pred, x.List, loopDepth, branchDepth)

	case *ast.BarrierStmt:
		n := b.newNode(Barrier)
		n.Barrier = x
		n.LoopDepth = loopDepth
		n.BranchDepth = branchDepth
		b.g.StmtNode[s] = n
		pred.addSucc(n)
		return n

	case *ast.IfStmt:
		br := b.newNode(Branch)
		br.Cond = x.Cond
		br.CondStmt = x
		br.LoopDepth = loopDepth
		br.BranchDepth = branchDepth
		b.g.StmtNode[s] = br
		pred.addSucc(br)

		thenEntry := b.newNode(Basic)
		thenEntry.LoopDepth = loopDepth
		thenEntry.BranchDepth = branchDepth + 1
		br.addSucc(thenEntry)
		thenExit := b.stmt(thenEntry, x.Then, loopDepth, branchDepth+1)

		join := b.newNode(Basic)
		join.LoopDepth = loopDepth
		join.BranchDepth = branchDepth
		if x.Else != nil {
			elseEntry := b.newNode(Basic)
			elseEntry.LoopDepth = loopDepth
			elseEntry.BranchDepth = branchDepth + 1
			br.addSucc(elseEntry)
			elseExit := b.stmt(elseEntry, x.Else, loopDepth, branchDepth+1)
			if elseExit != nil {
				elseExit.addSucc(join)
			}
		} else {
			br.addSucc(join)
		}
		if thenExit != nil {
			thenExit.addSucc(join)
		}
		if len(join.Preds) == 0 {
			return nil // both arms returned
		}
		return join

	case *ast.WhileStmt:
		br := b.newNode(Branch)
		br.Cond = x.Cond
		br.CondStmt = x
		br.LoopDepth = loopDepth
		br.BranchDepth = branchDepth
		b.g.StmtNode[s] = br
		pred.addSucc(br)

		bodyEntry := b.newNode(Basic)
		bodyEntry.LoopDepth = loopDepth + 1
		bodyEntry.BranchDepth = branchDepth
		br.addSucc(bodyEntry)
		bodyExit := b.stmt(bodyEntry, x.Body, loopDepth+1, branchDepth)
		if bodyExit != nil {
			bodyExit.addSucc(br)
		}

		out := b.newNode(Basic)
		out.LoopDepth = loopDepth
		out.BranchDepth = branchDepth
		br.addSucc(out)
		return out

	case *ast.ForStmt:
		cur := pred
		if x.Init != nil {
			cur = b.stmt(cur, x.Init, loopDepth, branchDepth)
		}
		br := b.newNode(Branch)
		br.Cond = x.Cond // may be nil: infinite loop
		br.CondStmt = x
		br.LoopDepth = loopDepth
		br.BranchDepth = branchDepth
		b.g.StmtNode[s] = br
		cur.addSucc(br)

		bodyEntry := b.newNode(Basic)
		bodyEntry.LoopDepth = loopDepth + 1
		bodyEntry.BranchDepth = branchDepth
		br.addSucc(bodyEntry)
		bodyExit := b.stmt(bodyEntry, x.Body, loopDepth+1, branchDepth)
		if x.Post != nil {
			if bodyExit == nil {
				bodyExit = b.newNode(Basic)
				bodyExit.LoopDepth = loopDepth + 1
				bodyExit.BranchDepth = branchDepth
			}
			bodyExit = b.stmt(bodyExit, x.Post, loopDepth+1, branchDepth)
		}
		if bodyExit != nil {
			bodyExit.addSucc(br)
		}

		out := b.newNode(Basic)
		out.LoopDepth = loopDepth
		out.BranchDepth = branchDepth
		if x.Cond != nil {
			br.addSucc(out)
		}
		return out

	case *ast.ReturnStmt:
		n := b.appendSimple(pred, s, loopDepth, branchDepth)
		n.addSucc(b.g.Exit)
		return nil

	default:
		// Simple statement: decl, assign, expr, acquire, release.
		return b.appendSimple(pred, s, loopDepth, branchDepth)
	}
}

// appendSimple adds a simple statement to pred if pred is an open Basic
// node with matching depths, otherwise starts a new node.
func (b *builder) appendSimple(pred *Node, s ast.Stmt, loopDepth, branchDepth int) *Node {
	n := pred
	if n.Kind != Basic || len(n.Succs) > 0 || n.LoopDepth != loopDepth || n.BranchDepth != branchDepth {
		n = b.newNode(Basic)
		n.LoopDepth = loopDepth
		n.BranchDepth = branchDepth
		pred.addSucc(n)
	}
	n.Stmts = append(n.Stmts, s)
	b.g.StmtNode[s] = n
	return n
}

// Barriers returns the barrier nodes of the graph in creation order.
func (g *Graph) Barriers() []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.Kind == Barrier {
			out = append(out, n)
		}
	}
	return out
}

// Reachable returns the set of nodes reachable from start without
// crossing any node for which stop returns true (start itself is
// always included; stop nodes are not expanded but are included when
// reached, so callers can see the region's frontier).
func (g *Graph) Reachable(start *Node, stop func(*Node) bool) map[*Node]bool {
	seen := map[*Node]bool{start: true}
	work := []*Node{start}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if stop(n) && n != start {
			continue
		}
		for _, s := range n.Succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return seen
}
