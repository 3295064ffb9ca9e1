// Package rsd implements bounded regular section descriptors (after
// Havlak & Kennedy), the representation the summary side-effect
// analysis uses for the array sections each process reads and writes.
//
// A descriptor is a vector of atoms, one per array dimension. Each
// atom describes the accessed subscripts in that dimension as an
// affine base in pid plus bounded induction-variable terms; an atom
// whose base could not be resolved is still useful because its
// induction terms determine the access stride (the paper's Topopt
// case). Descriptors are parametric in pid: instantiating them for
// concrete process ids yields the per-process sections whose
// disjointness establishes implicit array partitioning.
package rsd

import (
	"fmt"
	"strings"

	"falseshare/internal/analysis/affine"
)

// IVTerm is one induction-variable contribution to a subscript:
// Coef * iv, where iv ranges over [Lo, Hi) in steps of Step.
type IVTerm struct {
	Coef    int64
	Lo, Hi  affine.Expr // pid-only affine bounds; Hi is exclusive
	Step    int64       // > 0
	Bounded bool        // false when the loop bounds are unknown
}

// Atom describes the accessed subscripts of one dimension.
type Atom struct {
	// Known is false when the subscript base could not be resolved to
	// a pid-only affine form (e.g. it was loaded from shared memory).
	Known bool
	// Base is the pid-only affine base subscript.
	Base affine.Expr
	// Terms are the bounded induction-variable contributions; an atom
	// with no terms is a single point.
	Terms []IVTerm
}

// Point returns an atom for a single known subscript.
func Point(base affine.Expr) Atom { return Atom{Known: true, Base: base} }

// IsPoint reports whether the atom is a single known subscript.
func (a Atom) IsPoint() bool { return a.Known && len(a.Terms) == 0 }

// Stride returns the element stride of the atom: the gcd of the
// induction contributions. A point has stride 0. ok is false when no
// stride information is available.
func (a Atom) Stride() (int64, bool) {
	if len(a.Terms) == 0 {
		if a.Known {
			return 0, true
		}
		return 0, false
	}
	var g int64
	for _, t := range a.Terms {
		g = affine.Gcd(g, t.Coef*t.Step)
	}
	if g == 0 {
		return 0, false
	}
	return g, true
}

// UnitStride reports whether the atom walks the dimension with unit
// stride (the paper's spatial-locality signal).
func (a Atom) UnitStride() bool {
	s, ok := a.Stride()
	return ok && s == 1
}

// DependsOnPid reports whether the accessed section varies with the
// process id.
func (a Atom) DependsOnPid() bool {
	if a.Base.Pid != 0 {
		return true
	}
	for _, t := range a.Terms {
		if t.Lo.Pid != 0 || t.Hi.Pid != 0 {
			return true
		}
	}
	return false
}

// Section is the concrete strided index set of an atom for one pid.
type Section struct {
	Known  bool  // bounds known
	Lo, Hi int64 // inclusive bounds (valid when Known)
	Stride int64 // >= 1 when Exact
	Exact  bool  // the set is exactly {Lo, Lo+Stride, ..., <= Hi}
	Empty  bool  // the section contains no elements
}

// Section instantiates the atom for a concrete process id.
func (a Atom) Section(pid int64) Section {
	if !a.Known {
		return Section{}
	}
	base, ok := a.Base.EvalPid(pid)
	if !ok {
		return Section{}
	}
	lo, hi := base, base
	stride := int64(0)
	exact := true
	for _, t := range a.Terms {
		if !t.Bounded || t.Step <= 0 || t.Coef == 0 {
			return Section{} // unknown extent
		}
		tlo, ok1 := t.Lo.EvalPid(pid)
		thi, ok2 := t.Hi.EvalPid(pid)
		if !ok1 || !ok2 {
			return Section{}
		}
		if thi <= tlo {
			return Section{Known: true, Empty: true}
		}
		// last iteration value
		n := (thi - tlo - 1) / t.Step
		last := tlo + n*t.Step
		a1 := t.Coef * tlo
		a2 := t.Coef * last
		if a1 > a2 {
			a1, a2 = a2, a1
		}
		lo += a1
		hi += a2
		stride = affine.Gcd(stride, t.Coef*t.Step)
		if len(a.Terms) > 1 {
			// Multiple terms: the bounding interval and gcd stride are
			// kept, but the set is not guaranteed to be exactly
			// strided unless the terms tile (dominant common case:
			// i*M + j with j spanning [0,M)). Detect that tiling.
			exact = false
		}
	}
	if stride == 0 {
		stride = 1
	}
	// Tiling check for the canonical two-term linearized subscript
	// i*M + j, j in [0,M) step 1: the set is exactly unit-strided.
	if len(a.Terms) == 2 {
		t0, t1 := a.Terms[0], a.Terms[1]
		if isTiling(t0, t1, pid) || isTiling(t1, t0, pid) {
			exact = true
			stride = minAbs(t0.Coef*t0.Step, t1.Coef*t1.Step)
		}
	}
	return Section{Known: true, Lo: lo, Hi: hi, Stride: stride, Exact: exact}
}

// isTiling reports whether inner spans exactly the stride of outer,
// making the combined two-term set contiguous with the inner stride.
func isTiling(outer, inner IVTerm, pid int64) bool {
	ilo, ok1 := inner.Lo.EvalPid(pid)
	ihi, ok2 := inner.Hi.EvalPid(pid)
	if !ok1 || !ok2 || inner.Step != 1 || inner.Coef < 0 {
		return false
	}
	span := (ihi - ilo) * inner.Coef
	return span == outer.Coef*outer.Step || span == -outer.Coef*outer.Step
}

func minAbs(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	if a < b {
		return a
	}
	return b
}

// DisjointSections conservatively decides whether two concrete
// sections are provably disjoint.
func DisjointSections(a, b Section) bool {
	if a.Empty || b.Empty {
		return true
	}
	if !a.Known || !b.Known {
		return false
	}
	if a.Hi < b.Lo || b.Hi < a.Lo {
		return true
	}
	// Overlapping intervals: congruence can still separate them, e.g.
	// cyclic partitions pid + k*nprocs.
	if a.Exact && b.Exact {
		g := affine.Gcd(a.Stride, b.Stride)
		if g > 1 && (a.Lo-b.Lo)%g != 0 {
			return true
		}
	}
	return false
}

// String renders the atom for diagnostics.
func (a Atom) String() string {
	if !a.Known && len(a.Terms) == 0 {
		return "?"
	}
	var parts []string
	if a.Known {
		parts = append(parts, a.Base.String())
	} else {
		parts = append(parts, "?")
	}
	for _, t := range a.Terms {
		if t.Bounded {
			parts = append(parts, fmt.Sprintf("%d*iv[%s:%s:%d]", t.Coef, t.Lo, t.Hi, t.Step))
		} else {
			parts = append(parts, fmt.Sprintf("%d*iv[?:%d]", t.Coef, t.Step))
		}
	}
	return strings.Join(parts, " + ")
}

// equal reports whether a and b have the same String, without
// rendering either. An unknown base prints as "?", as does a known one
// that is nothing but a residue, so the two compare equal.
func (a Atom) equal(b Atom) bool {
	if len(a.Terms) != len(b.Terms) {
		return false
	}
	if ua, ub := a.unknownBase(), b.unknownBase(); ua || ub {
		if ua != ub {
			return false
		}
	} else if !a.Base.Equal(b.Base) {
		return false
	}
	for i, t := range a.Terms {
		if !t.equal(b.Terms[i]) {
			return false
		}
	}
	return true
}

// unknownBase reports whether the atom's base prints as "?".
func (a Atom) unknownBase() bool {
	return !a.Known || a.Base.Equal(affine.Unknown())
}

// equal reports whether t and u print alike: a bounded term never
// prints as an unbounded one, and an unbounded term prints no bounds.
func (t IVTerm) equal(u IVTerm) bool {
	if t.Bounded != u.Bounded || t.Coef != u.Coef || t.Step != u.Step {
		return false
	}
	return !t.Bounded || (t.Lo.Equal(u.Lo) && t.Hi.Equal(u.Hi))
}

// RSD is a full descriptor: one atom per array dimension (outermost
// first). A scalar has an empty descriptor.
type RSD []Atom

// String renders the descriptor.
func (r RSD) String() string {
	if len(r) == 0 {
		return "[scalar]"
	}
	parts := make([]string, len(r))
	for i, a := range r {
		parts[i] = "[" + a.String() + "]"
	}
	return strings.Join(parts, "")
}

// equal reports whether r and s have the same String, without
// rendering either.
func (r RSD) equal(s RSD) bool {
	if len(r) != len(s) {
		return false
	}
	for i, a := range r {
		if !a.equal(s[i]) {
			return false
		}
	}
	return true
}

// Disjoint reports whether the sections touched by processes p and q
// are provably disjoint: disjoint in at least one dimension.
func (r RSD) Disjoint(p, q int64) bool {
	for _, a := range r {
		if DisjointSections(a.Section(p), a.Section(q)) {
			return true
		}
	}
	return false
}

// PairwiseDisjoint reports whether all distinct process pairs in
// 0..nprocs-1 touch provably disjoint sections.
func (r RSD) PairwiseDisjoint(nprocs int64) bool {
	if len(r) == 0 {
		return false // scalars cannot be partitioned
	}
	for p := int64(0); p < nprocs; p++ {
		for q := p + 1; q < nprocs; q++ {
			if !r.Disjoint(p, q) {
				return false
			}
		}
	}
	return true
}

// PidDim returns the index of the first dimension whose section
// varies with pid, or -1.
func (r RSD) PidDim() int {
	for i, a := range r {
		if a.DependsOnPid() {
			return i
		}
	}
	return -1
}

// InnerUnitStride reports whether the innermost dimension is walked
// with unit stride (or is a known point, which has trivial locality).
func (r RSD) InnerUnitStride() bool {
	if len(r) == 0 {
		return false
	}
	inner := r[len(r)-1]
	if inner.IsPoint() {
		return false
	}
	return inner.UnitStride()
}
