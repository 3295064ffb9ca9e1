// Package affine analyzes parc expressions as affine forms over the
// process id (pid), loop induction variables, and constants.
//
// Affine forms are the currency of the compile-time analysis: process
// differentiating variables (PDVs) have affine values in pid, array
// subscripts are affine in pid and induction variables, and bounded
// regular section descriptors are built from these forms. The
// configured process count (nprocs) is substituted at analysis time,
// following the paper's assumption that the number of processes equals
// the number of processors.
package affine

import (
	"fmt"
	"sort"
	"strings"

	"falseshare/internal/lang/ast"
	"falseshare/internal/lang/token"
	"falseshare/internal/lang/types"
)

// Expr is an affine form:
//
//	value = Const + Pid*pid + sum_i IV[s_i]*s_i  (+ unknown residue)
//
// Residue marks a non-affine contribution of unknown value. A form
// with Residue keeps whatever structure was recoverable — in
// particular the induction-variable coefficients, which still
// determine the access stride (the paper's Topopt array is exactly
// this case: an unknown, dynamically computed base plus a unit-stride
// induction term).
type Expr struct {
	Const   int64
	Pid     int64
	IV      map[*types.Symbol]int64
	Residue bool
}

// Constant returns the affine form of a constant.
func Constant(c int64) Expr { return Expr{Const: c} }

// PidTerm returns the affine form c + k*pid.
func PidTerm(c, k int64) Expr { return Expr{Const: c, Pid: k} }

// Unknown returns a fully unknown form.
func Unknown() Expr { return Expr{Residue: true} }

// IsConstant reports whether the form is a known constant.
func (e Expr) IsConstant() bool { return !e.Residue && e.Pid == 0 && len(e.IV) == 0 }

// PidOnly reports whether the form depends on nothing but pid (and
// constants) — the shape a PDV value must have.
func (e Expr) PidOnly() bool { return !e.Residue && len(e.IV) == 0 }

// IVCoef returns the coefficient of the given induction variable.
func (e Expr) IVCoef(s *types.Symbol) int64 { return e.IV[s] }

// IVs returns the induction variables with nonzero coefficients, in a
// deterministic order.
func (e Expr) IVs() []*types.Symbol {
	out := make([]*types.Symbol, 0, len(e.IV))
	for s := range e.IV {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Func != out[j].Func {
			return out[i].Func < out[j].Func
		}
		return out[i].Slot < out[j].Slot
	})
	return out
}

// EvalPid evaluates a pid-only form for a concrete process id.
func (e Expr) EvalPid(pid int64) (int64, bool) {
	if !e.PidOnly() {
		return 0, false
	}
	return e.Const + e.Pid*pid, true
}

// DropIVs returns the form with all induction variable terms removed
// (used to take the "base" of a subscript).
func (e Expr) DropIVs() Expr {
	return Expr{Const: e.Const, Pid: e.Pid, Residue: e.Residue}
}

// Add returns e + f.
func (e Expr) Add(f Expr) Expr {
	out := Expr{
		Const:   e.Const + f.Const,
		Pid:     e.Pid + f.Pid,
		Residue: e.Residue || f.Residue,
	}
	out.IV = mergeIV(e.IV, f.IV, 1)
	return out
}

// Sub returns e - f.
func (e Expr) Sub(f Expr) Expr {
	out := Expr{
		Const:   e.Const - f.Const,
		Pid:     e.Pid - f.Pid,
		Residue: e.Residue || f.Residue,
	}
	out.IV = mergeIV(e.IV, f.IV, -1)
	return out
}

// Scale returns k*e.
func (e Expr) Scale(k int64) Expr {
	out := Expr{Const: e.Const * k, Pid: e.Pid * k, Residue: e.Residue}
	if len(e.IV) > 0 {
		out.IV = map[*types.Symbol]int64{}
		for s, c := range e.IV {
			if c*k != 0 {
				out.IV[s] = c * k
			}
		}
	}
	return out
}

func mergeIV(a, b map[*types.Symbol]int64, sign int64) map[*types.Symbol]int64 {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := map[*types.Symbol]int64{}
	for s, c := range a {
		out[s] = c
	}
	for s, c := range b {
		out[s] += sign * c
	}
	for s, c := range out {
		if c == 0 {
			delete(out, s)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// String renders the form for diagnostics.
func (e Expr) String() string {
	var parts []string
	if e.Const != 0 || (e.Pid == 0 && len(e.IV) == 0 && !e.Residue) {
		parts = append(parts, fmt.Sprintf("%d", e.Const))
	}
	if e.Pid != 0 {
		parts = append(parts, fmt.Sprintf("%d*pid", e.Pid))
	}
	for _, s := range e.IVs() {
		parts = append(parts, fmt.Sprintf("%d*%s", e.IV[s], s.Name))
	}
	if e.Residue {
		parts = append(parts, "?")
	}
	return strings.Join(parts, " + ")
}

// Equal reports whether e and f have the same String, without
// rendering either: the same constant, pid coefficient and residue,
// and the same induction terms in IVs order. Induction variables
// compare by name, as String prints them.
func (e Expr) Equal(f Expr) bool {
	if e.Const != f.Const || e.Pid != f.Pid || e.Residue != f.Residue || len(e.IV) != len(f.IV) {
		return false
	}
	if len(e.IV) == 0 {
		return true
	}
	es, fs := e.IVs(), f.IVs()
	for i, s := range es {
		if s.Name != fs[i].Name || e.IV[s] != f.IV[fs[i]] {
			return false
		}
	}
	return true
}

// Env supplies symbol meanings to Analyze.
type Env interface {
	// PDVValue returns the affine (pid-only) value of a symbol that is
	// a process differentiating variable, or ok=false.
	PDVValue(s *types.Symbol) (Expr, bool)
	// IsInduction reports whether the symbol is an induction variable
	// of an enclosing loop at the point of analysis.
	IsInduction(s *types.Symbol) bool
	// Nprocs returns the configured process count.
	Nprocs() int64
}

// Analyze computes the affine form of e. Identifiers resolve through
// info (for the symbol) and env (for its meaning). Anything
// unresolvable contributes an unknown residue rather than failing, so
// partial structure (e.g. strides) survives.
func Analyze(e ast.Expr, info *types.Info, env Env) Expr {
	switch x := e.(type) {
	case *ast.IntLit:
		return Constant(x.Value)
	case *ast.PidExpr:
		return PidTerm(0, 1)
	case *ast.NprocsExpr:
		return Constant(env.Nprocs())
	case *ast.Ident:
		sym := info.Uses[x]
		if sym == nil {
			return Unknown()
		}
		if env.IsInduction(sym) {
			return Expr{IV: map[*types.Symbol]int64{sym: 1}}
		}
		if v, ok := env.PDVValue(sym); ok {
			return v
		}
		return Unknown()
	case *ast.UnaryExpr:
		if x.Op == token.MINUS {
			return Analyze(x.X, info, env).Scale(-1)
		}
		return Unknown()
	case *ast.BinaryExpr:
		a := Analyze(x.X, info, env)
		b := Analyze(x.Y, info, env)
		switch x.Op {
		case token.PLUS:
			return a.Add(b)
		case token.MINUS:
			return a.Sub(b)
		case token.STAR:
			if a.IsConstant() {
				return b.Scale(a.Const)
			}
			if b.IsConstant() {
				return a.Scale(b.Const)
			}
			return Unknown()
		case token.SLASH:
			if b.IsConstant() && b.Const != 0 && a.IsConstant() {
				return Constant(a.Const / b.Const)
			}
			// pid/k and similar divide forms are not affine; give up
			// but keep nothing (division breaks stride structure).
			return Unknown()
		case token.PERCENT:
			if a.IsConstant() && b.IsConstant() && b.Const != 0 {
				return Constant(a.Const % b.Const)
			}
			return Unknown()
		}
		return Unknown()
	}
	return Unknown()
}

// Gcd returns the non-negative greatest common divisor.
func Gcd(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
