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
	a := &analyzer{prog: prog, info: info, pdvs: pdvs, res: res}

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
	switch stmt := n.CondStmt.(type) {
	case *ast.IfStmt, *ast.WhileStmt:
		// successor 0 = condition true, successor 1 = false.
		_ = stmt
		out := Set(0)
		for _, p := range in.Procs() {
			v, ok := a.evalCond(n.Cond, int64(p), nil)
			if !ok {
				return in // undecidable: pass everything through
			}
			if (i == 0) == v {
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
		ivSym, ivInit := forInduction(stmt, a.info)
		if ivSym == nil {
			return in
		}
		out := Set(0)
		for _, p := range in.Procs() {
			iv0 := affine.Analyze(ivInit, a.info, a.pdvs)
			v0, ok := iv0.EvalPid(int64(p))
			if !ok {
				return in
			}
			v, ok := a.evalCond(n.Cond, int64(p), &ivBinding{sym: ivSym, val: v0})
			if !ok {
				return in
			}
			if v {
				out = out.Add(p)
			}
		}
		return out
	}
	return in
}

// ivBinding binds one induction variable to a concrete value while
// evaluating a first-iteration loop test.
type ivBinding struct {
	sym *types.Symbol
	val int64
}

// evalCond decides a branch condition for a concrete process id,
// consulting PDV values (and, for loop entry tests, the bound
// induction variable). ok=false when the condition is not decidable.
func (a *analyzer) evalCond(e ast.Expr, pid int64, iv *ivBinding) (bool, bool) {
	v, ok := a.evalInt(e, pid, iv)
	return v != 0, ok
}

func (a *analyzer) evalInt(e ast.Expr, pid int64, iv *ivBinding) (int64, bool) {
	switch x := e.(type) {
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			v, ok := a.evalInt(x.X, pid, iv)
			if !ok {
				return 0, false
			}
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND, token.LOR:
			l, ok1 := a.evalInt(x.X, pid, iv)
			r, ok2 := a.evalInt(x.Y, pid, iv)
			if !ok1 || !ok2 {
				return 0, false
			}
			if x.Op == token.LAND {
				return b2i(l != 0 && r != 0), true
			}
			return b2i(l != 0 || r != 0), true
		case token.EQ, token.NEQ, token.LT, token.LE, token.GT, token.GE:
			l, ok1 := a.evalAffine(x.X, pid, iv)
			r, ok2 := a.evalAffine(x.Y, pid, iv)
			if !ok1 || !ok2 {
				return 0, false
			}
			switch x.Op {
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
			case token.GE:
				return b2i(l >= r), true
			}
		}
	}
	return a.evalAffine(e, pid, iv)
}

// evalAffine evaluates an arithmetic subexpression for a concrete pid.
func (a *analyzer) evalAffine(e ast.Expr, pid int64, iv *ivBinding) (int64, bool) {
	env := affine.Env(a.pdvs)
	if iv != nil {
		env = &ivEnv{base: a.pdvs, iv: iv}
	}
	form := affine.Analyze(e, a.info, env)
	if iv != nil {
		// Substitute the bound induction variable.
		if c, ok := form.IV[iv.sym]; ok {
			form = affine.Expr{
				Const:   form.Const + c*iv.val,
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
	iv   *ivBinding
}

func (e *ivEnv) PDVValue(s *types.Symbol) (affine.Expr, bool) { return e.base.PDVValue(s) }
func (e *ivEnv) IsInduction(s *types.Symbol) bool             { return s == e.iv.sym }
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
