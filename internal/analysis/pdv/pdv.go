// Package pdv detects process differentiating variables (PDVs).
//
// A PDV is a private variable whose value differs across processes and
// is invariant over the lifetime of a process (paper §2, §3.1). The
// built-in pid is the seed; other variables become PDVs when their
// single assignment copies an affine function of pid (the fork-loop
// induction variable pattern of Figure 1). Variables with constant
// values are tracked too: they feed loop-bound and subscript analysis.
package pdv

import (
	"fmt"
	"sort"
	"strings"

	"falseshare/internal/analysis/affine"
	"falseshare/internal/lang/ast"
	"falseshare/internal/lang/types"
)

// Result holds the discovered per-symbol affine values. It implements
// affine.Env (with no induction variables in scope) so later stages can
// layer loop contexts on top of it.
type Result struct {
	Values map[*types.Symbol]affine.Expr
	nprocs int64
}

// PDVValue returns the affine value of a symbol if known.
func (r *Result) PDVValue(s *types.Symbol) (affine.Expr, bool) {
	v, ok := r.Values[s]
	return v, ok
}

// IsInduction always reports false: the base environment has no loops
// in scope.
func (r *Result) IsInduction(*types.Symbol) bool { return false }

// Nprocs returns the configured process count.
func (r *Result) Nprocs() int64 { return r.nprocs }

// IsPDV reports whether the symbol's value actually varies across
// processes (nonzero pid coefficient).
func (r *Result) IsPDV(s *types.Symbol) bool {
	v, ok := r.Values[s]
	return ok && v.Pid != 0
}

// String lists the discovered PDVs for diagnostics.
func (r *Result) String() string {
	type entry struct {
		name string
		v    affine.Expr
	}
	var entries []entry
	for s, v := range r.Values {
		name := s.Name
		if s.Func != "" {
			name = s.Func + "." + s.Name
		}
		entries = append(entries, entry{name, v})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	var sb strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&sb, "%s = %s\n", e.name, e.v)
	}
	return sb.String()
}

// Analyze finds PDVs and constant-valued private scalars for the given
// process count.
func Analyze(info *types.Info, nprocs int64) *Result {
	res := &Result{Values: map[*types.Symbol]affine.Expr{}, nprocs: nprocs}

	// Collect the right-hand side of every static assignment to a
	// scalar symbol, and the argument expressions flowing into each
	// parameter.
	defs := map[*types.Symbol][]ast.Expr{}
	paramArgs := map[*types.Symbol][]ast.Expr{}

	record := func(sym *types.Symbol, rhs ast.Expr) {
		if sym == nil {
			return
		}
		defs[sym] = append(defs[sym], rhs)
	}

	for _, fn := range info.File.Funcs {
		fi := info.Funcs[fn.Name]
		if fi == nil {
			continue
		}
		ast.Walk(fn.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if id, ok := x.LHS.(*ast.Ident); ok {
					record(info.Uses[id], x.RHS)
				}
			case *ast.DeclStmt:
				if x.Init != nil {
					record(info.LocalDecls[x.Decl], x.Init)
				}
			case *ast.CallExpr:
				callee := info.Funcs[x.Name]
				if callee != nil {
					for i, arg := range x.Args {
						if i < len(callee.Params) {
							p := callee.Params[i]
							paramArgs[p] = append(paramArgs[p], arg)
						}
					}
				}
			}
			return true
		})
	}

	// Fixed point: a symbol's value becomes known when its single
	// definition (or all parameter arguments) evaluate to the same
	// pid-only affine form under the current map.
	for iter := 0; iter < 20; iter++ {
		changed := false

		for sym, ds := range defs {
			if _, done := res.Values[sym]; done {
				continue
			}
			if !candidate(sym) || len(ds) != 1 {
				continue
			}
			v := affine.Analyze(ds[0], info, res)
			if v.PidOnly() {
				res.Values[sym] = v
				changed = true
			}
		}

		for p, args := range paramArgs {
			if _, done := res.Values[p]; done {
				continue
			}
			if p.Type == nil || p.Type.Kind != types.Int {
				continue
			}
			// A parameter is a PDV only when every call site passes the
			// same pid-only affine value and it is never reassigned in
			// the body.
			if len(defs[p]) > 0 {
				continue
			}
			var val affine.Expr
			ok := true
			for i, a := range args {
				v := affine.Analyze(a, info, res)
				if !v.PidOnly() {
					ok = false
					break
				}
				if i == 0 {
					val = v
				} else if v.Const != val.Const || v.Pid != val.Pid {
					ok = false
					break
				}
			}
			if ok && len(args) > 0 {
				res.Values[p] = val
				changed = true
			}
		}

		if !changed {
			break
		}
	}
	return res
}

// candidate reports whether a symbol may carry a PDV or constant
// value: private file-scope int scalars and local int scalars.
// Parameters are excluded here and handled through call-site argument
// joins.
func candidate(s *types.Symbol) bool {
	if s.Type == nil || s.Type.Kind != types.Int {
		return false
	}
	switch s.Kind {
	case types.GlobalVar:
		return s.Storage == ast.Private
	case types.LocalVar:
		return true
	}
	return false
}
