package procs

import (
	"falseshare/internal/analysis/affine"
	"falseshare/internal/analysis/pdv"
	"falseshare/internal/cfg"
	"falseshare/internal/lang/ast"
	"falseshare/internal/lang/token"
	"falseshare/internal/lang/types"
)

// Result holds the per-node and per-function process sets.
type Result struct {
	Nprocs int
	// Node maps every CFG node (across all functions) to the set of
	// processes that may execute it.
	Node map[*cfg.Node]Set
	// Func maps a function name to the union of the process sets at
	// its call sites (main gets the full set).
	Func map[string]Set
}

// Analyze computes the per-process control-flow annotation.
func Analyze(prog *cfg.CallGraph, info *types.Info, pdvs *pdv.Result, nprocs int) *Result {
	if nprocs > MaxProcs {
		nprocs = MaxProcs
	}
	res := &Result{
		Nprocs: nprocs,
		Node:   map[*cfg.Node]Set{},
		Func:   map[string]Set{},
	}
	a := &analyzer{prog: prog, info: info, pdvs: pdvs, res: res, tests: map[*cfg.Node]*branchTest{}}

	// Everything starts empty except main.
	for name := range prog.Graphs {
		res.Func[name] = 0
	}
	res.Func["main"] = All(nprocs)

	// Fixed point over function base sets: a callee's base set is the
	// union of the node sets at its call sites.
	for iter := 0; iter < len(prog.Graphs)+2; iter++ {
		changed := false
		for name, g := range prog.Graphs {
			a.function(g, res.Func[name])
		}
		for _, site := range prog.Sites {
			ns := res.Node[site.Node]
			old := res.Func[site.Callee]
			nw := old.Union(ns)
			if nw != old {
				res.Func[site.Callee] = nw
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return res
}

type analyzer struct {
	prog *cfg.CallGraph
	info *types.Info
	pdvs *pdv.Result
	res  *Result
	// tests holds each branch node's test, derived on the node's first
	// visit, so the worklist derives it once however often it comes
	// back.
	tests map[*cfg.Node]*branchTest
}

// function runs a worklist dataflow over one CFG: a node's set is the
// union of the filtered contributions of its predecessors.
func (a *analyzer) function(g *cfg.Graph, base Set) {
	// Reset the function's nodes.
	for _, n := range g.Nodes {
		a.res.Node[n] = 0
	}
	a.res.Node[g.Entry] = base

	work := []*cfg.Node{g.Entry}
	inWork := map[*cfg.Node]bool{g.Entry: true}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		inWork[n] = false
		cur := a.res.Node[n]
		for i, s := range n.Succs {
			contrib := a.edgeFilter(n, i, cur)
			old := a.res.Node[s]
			nw := old.Union(contrib)
			if nw != old {
				a.res.Node[s] = nw
				if !inWork[s] {
					work = append(work, s)
					inWork[s] = true
				}
			}
		}
	}
}

// edgeFilter restricts the process set flowing along the i-th
// successor edge of a branch node whose condition is decidable per
// process.
func (a *analyzer) edgeFilter(n *cfg.Node, i int, in Set) Set {
	if n.Kind != cfg.Branch || in.Empty() {
		return in
	}
	switch n.CondStmt.(type) {
	case *ast.IfStmt, *ast.WhileStmt:
		// successor 0 = condition true, successor 1 = false.
		c := a.test(n).cond
		out := Set(0)
		for _, p := range in.Procs() {
			v, ok := c.eval(int64(p), 0)
			if !ok {
				return in // undecidable: pass everything through
			}
			if (i == 0) == (v != 0) {
				out = out.Add(p)
			}
		}
		return out
	case *ast.ForStmt:
		// The body edge (successor 0) is taken by processes whose
		// first-iteration test succeeds; the exit edge passes all (a
		// process that enters the loop eventually leaves it).
		if i != 0 || n.Cond == nil {
			return in
		}
		t := a.test(n)
		if t.init == nil {
			return in // no induction variable
		}
		out := Set(0)
		for _, p := range in.Procs() {
			v0, ok := t.init.eval(int64(p), 0)
			if !ok {
				return in
			}
			v, ok := t.cond.eval(int64(p), v0)
			if !ok {
				return in
			}
			if v != 0 {
				out = out.Add(p)
			}
		}
		return out
	}
	return in
}

// branchTest is a branch node's condition, derived once. For a for
// loop's entry test, the induction variable is bound while cond is
// evaluated, and init is the form of its initial value; a loop without
// an induction variable has neither.
type branchTest struct {
	cond, init *cond
}

// test returns n's branch test, deriving it on first use.
func (a *analyzer) test(n *cfg.Node) *branchTest {
	if t := a.tests[n]; t != nil {
		return t
	}
	t := &branchTest{}
	if f, ok := n.CondStmt.(*ast.ForStmt); ok {
		if iv, init := forInduction(f, a.info); iv != nil {
			t.cond, t.init = a.derive(n.Cond, iv), a.operand(init, nil)
		}
	} else {
		t.cond = a.derive(n.Cond, nil)
	}
	a.tests[n] = t
	return t
}

// cond is a branch condition in the shape evaluation walks: logical
// operators over comparisons of arithmetic operands, each operand's
// affine form derived once. A form depends on which symbol is the
// induction variable, never on its value, so one derivation serves
// every process id.
type cond struct {
	op   token.Kind // NOT, LAND, LOR, a comparison, or ILLEGAL for an operand
	x, y *cond
	form affine.Expr // an operand's form
	iv   *types.Symbol
}

// derive returns the condition e with its operands' affine forms. iv,
// when non-nil, is the induction variable whose value eval binds.
func (a *analyzer) derive(e ast.Expr, iv *types.Symbol) *cond {
	switch x := e.(type) {
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			return &cond{op: x.Op, x: a.derive(x.X, iv)}
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND, token.LOR:
			return &cond{op: x.Op, x: a.derive(x.X, iv), y: a.derive(x.Y, iv)}
		case token.EQ, token.NEQ, token.LT, token.LE, token.GT, token.GE:
			return &cond{op: x.Op, x: a.operand(x.X, iv), y: a.operand(x.Y, iv)}
		}
	}
	return a.operand(e, iv)
}

// operand derives the affine form of an arithmetic subexpression.
func (a *analyzer) operand(e ast.Expr, iv *types.Symbol) *cond {
	env := affine.Env(a.pdvs)
	if iv != nil {
		env = &ivEnv{base: a.pdvs, iv: iv}
	}
	return &cond{form: affine.Analyze(e, a.info, env), iv: iv}
}

// eval decides the condition for a concrete process id, with the
// induction variable (if the derivation bound one) at value ivVal.
// ok=false when the condition is not decidable.
func (c *cond) eval(pid, ivVal int64) (int64, bool) {
	switch c.op {
	case token.NOT:
		v, ok := c.x.eval(pid, ivVal)
		if !ok {
			return 0, false
		}
		return b2i(v == 0), true
	case token.LAND, token.LOR:
		l, ok1 := c.x.eval(pid, ivVal)
		r, ok2 := c.y.eval(pid, ivVal)
		if !ok1 || !ok2 {
			return 0, false
		}
		if c.op == token.LAND {
			return b2i(l != 0 && r != 0), true
		}
		return b2i(l != 0 || r != 0), true
	case token.EQ, token.NEQ, token.LT, token.LE, token.GT, token.GE:
		l, ok1 := c.x.eval(pid, ivVal)
		r, ok2 := c.y.eval(pid, ivVal)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch c.op {
		case token.EQ:
			return b2i(l == r), true
		case token.NEQ:
			return b2i(l != r), true
		case token.LT:
			return b2i(l < r), true
		case token.LE:
			return b2i(l <= r), true
		case token.GT:
			return b2i(l > r), true
		}
		return b2i(l >= r), true
	}
	form := c.form
	if c.iv != nil {
		// Substitute the bound induction variable.
		if k, ok := form.IV[c.iv]; ok {
			form = affine.Expr{
				Const:   form.Const + k*ivVal,
				Pid:     form.Pid,
				Residue: form.Residue,
			}
		}
	}
	return form.EvalPid(pid)
}

// ivEnv layers one induction variable over the PDV environment.
type ivEnv struct {
	base affine.Env
	iv   *types.Symbol
}

func (e *ivEnv) PDVValue(s *types.Symbol) (affine.Expr, bool) { return e.base.PDVValue(s) }
func (e *ivEnv) IsInduction(s *types.Symbol) bool             { return s == e.iv }
func (e *ivEnv) Nprocs() int64                                { return e.base.Nprocs() }

// forInduction extracts the induction variable symbol and its initial
// expression from a for statement's init clause.
func forInduction(f *ast.ForStmt, info *types.Info) (*types.Symbol, ast.Expr) {
	switch init := f.Init.(type) {
	case *ast.AssignStmt:
		if id, ok := init.LHS.(*ast.Ident); ok {
			return info.Uses[id], init.RHS
		}
	case *ast.DeclStmt:
		if init.Init != nil {
			return info.LocalDecls[init.Decl], init.Init
		}
	}
	return nil, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
