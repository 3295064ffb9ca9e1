package rsd

import (
	"testing"
	"testing/quick"

	"falseshare/internal/analysis/affine"
)

// mkRange builds an atom base + coef*iv for iv in [lo, hi) step.
func mkRange(base affine.Expr, coef, lo, hi, step int64) Atom {
	return Atom{
		Known: true,
		Base:  base,
		Terms: []IVTerm{{
			Coef: coef, Step: step, Bounded: true,
			Lo: affine.Constant(lo), Hi: affine.Constant(hi),
		}},
	}
}

func TestPointSection(t *testing.T) {
	a := Point(affine.PidTerm(3, 2)) // subscript 3 + 2*pid
	s := a.Section(5)
	if !s.Known || s.Lo != 13 || s.Hi != 13 || !s.Exact {
		t.Fatalf("section: %+v", s)
	}
}

func TestBlockRangeSection(t *testing.T) {
	// a[pid*10 + i], i in [0,10): process p owns [10p, 10p+9].
	a := mkRange(affine.PidTerm(0, 10), 1, 0, 10, 1)
	s := a.Section(3)
	if s.Lo != 30 || s.Hi != 39 || s.Stride != 1 || !s.Exact {
		t.Fatalf("section: %+v", s)
	}
	if !(RSD{a}).PairwiseDisjoint(8) {
		t.Errorf("block partition should be disjoint")
	}
}

func TestCyclicDisjointByCongruence(t *testing.T) {
	// a[pid + 8*i], i in [0,16): overlapping intervals, disjoint by
	// congruence classes mod 8.
	a := mkRange(affine.PidTerm(0, 1), 8, 0, 16, 1)
	s0, s1 := a.Section(0), a.Section(1)
	if s0.Hi < s1.Lo || s1.Hi < s0.Lo {
		t.Fatalf("intervals should overlap: %+v %+v", s0, s1)
	}
	if !DisjointSections(s0, s1) {
		t.Errorf("congruence disjointness not detected")
	}
	if !(RSD{a}).PairwiseDisjoint(8) {
		t.Errorf("cyclic partition should be pairwise disjoint")
	}
	// But two processes 8 apart share a class only if pid range
	// exceeded the period — with 9 processes, pid 0 and 8 collide.
	if (RSD{a}).PairwiseDisjoint(9) {
		t.Errorf("9 processes on period 8 must not be disjoint")
	}
}

func TestUnknownNeverDisjoint(t *testing.T) {
	u := Atom{Known: false, Terms: []IVTerm{{Coef: 1, Step: 1, Bounded: false}}}
	if (RSD{u}).Disjoint(0, 1) {
		t.Errorf("unknown sections must not be proven disjoint")
	}
	if !u.UnitStride() {
		t.Errorf("stride must survive an unknown base")
	}
}

func TestEmptySection(t *testing.T) {
	// Loop with hi <= lo for some pid: empty section is disjoint from
	// everything.
	a := Atom{
		Known: true,
		Base:  affine.Constant(0),
		Terms: []IVTerm{{
			Coef: 1, Step: 1, Bounded: true,
			Lo: affine.PidTerm(0, 10), // lo = 10*pid
			Hi: affine.Constant(5),    // hi = 5: empty for pid >= 1
		}},
	}
	s := a.Section(2)
	if !s.Known || !s.Empty {
		t.Fatalf("expected empty section: %+v", s)
	}
	if !DisjointSections(s, a.Section(0)) {
		t.Errorf("empty sections are disjoint from everything")
	}
}

func TestTilingTwoTerms(t *testing.T) {
	// a[i*8 + j], i in [0,4), j in [0,8): exactly [0,32) unit stride.
	a := Atom{
		Known: true,
		Base:  affine.Constant(0),
		Terms: []IVTerm{
			{Coef: 8, Step: 1, Bounded: true, Lo: affine.Constant(0), Hi: affine.Constant(4)},
			{Coef: 1, Step: 1, Bounded: true, Lo: affine.Constant(0), Hi: affine.Constant(8)},
		},
	}
	s := a.Section(0)
	if !s.Exact || s.Lo != 0 || s.Hi != 31 || s.Stride != 1 {
		t.Fatalf("tiled section: %+v", s)
	}
}

func TestPidDimAndStride(t *testing.T) {
	r := RSD{
		mkRange(affine.Constant(0), 1, 0, 100, 1), // dim 0: all rows
		Point(affine.PidTerm(0, 1)),               // dim 1: pid column
	}
	if got := r.PidDim(); got != 1 {
		t.Errorf("PidDim = %d", got)
	}
	if r.InnerUnitStride() {
		t.Errorf("a point column has no inner unit stride")
	}
	r2 := RSD{Point(affine.PidTerm(0, 1)), mkRange(affine.Constant(0), 1, 0, 100, 1)}
	if !r2.InnerUnitStride() {
		t.Errorf("unit-stride row should report spatial locality")
	}
}

func TestScalarRSD(t *testing.T) {
	r := RSD{}
	if r.PairwiseDisjoint(4) {
		t.Errorf("scalars cannot be partitioned")
	}
	if r.String() != "[scalar]" {
		t.Errorf("String = %q", r.String())
	}
}

// Property: Section evaluation is consistent with brute-force
// enumeration of single-term atoms.
func TestSectionMatchesEnumeration(t *testing.T) {
	f := func(baseC, basePRaw, coefRaw, loRaw, hiRaw, stepRaw, pidRaw uint8) bool {
		baseP := int64(basePRaw % 8)
		coef := int64(coefRaw%5) + 1
		lo := int64(loRaw % 16)
		hi := lo + int64(hiRaw%16)
		step := int64(stepRaw%3) + 1
		pid := int64(pidRaw % 8)
		a := mkRange(affine.PidTerm(int64(baseC%32), baseP), coef, lo, hi, step)
		s := a.Section(pid)

		// Enumerate.
		base := int64(baseC%32) + baseP*pid
		var vals []int64
		for iv := lo; iv < hi; iv += step {
			vals = append(vals, base+coef*iv)
		}
		if len(vals) == 0 {
			return s.Known && s.Empty
		}
		min, max := vals[0], vals[len(vals)-1]
		if min > max {
			min, max = max, min
		}
		if !s.Known || s.Empty || s.Lo != min || s.Hi != max {
			return false
		}
		if s.Exact {
			// Every enumerated value must be on the stride lattice.
			for _, v := range vals {
				if (v-s.Lo)%s.Stride != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: DisjointSections never claims disjointness when the
// enumerated sets intersect (soundness of the conservative test).
func TestDisjointSoundness(t *testing.T) {
	enum := func(a Atom, pid int64) map[int64]bool {
		out := map[int64]bool{}
		t := a.Terms[0]
		lo, _ := t.Lo.EvalPid(pid)
		hi, _ := t.Hi.EvalPid(pid)
		base, _ := a.Base.EvalPid(pid)
		for iv := lo; iv < hi; iv += t.Step {
			out[base+t.Coef*iv] = true
		}
		return out
	}
	f := func(p1Raw, p2Raw, coef1Raw, coef2Raw, span1, span2, b1, b2 uint8) bool {
		p1, p2 := int64(p1Raw%6), int64(p2Raw%6)
		a1 := mkRange(affine.PidTerm(int64(b1%8), 3), int64(coef1Raw%4)+1, 0, int64(span1%12), 1)
		a2 := mkRange(affine.PidTerm(int64(b2%8), 3), int64(coef2Raw%4)+1, 0, int64(span2%12), 1)
		s1, s2 := a1.Section(p1), a2.Section(p2)
		if !DisjointSections(s1, s2) {
			return true // claiming overlap is always safe
		}
		e1, e2 := enum(a1, p1), enum(a2, p2)
		for v := range e1 {
			if e2[v] {
				return false // claimed disjoint but sets intersect
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeDedup(t *testing.T) {
	r := RSD{Point(affine.PidTerm(0, 1))}
	list := Add(nil, r, 5, 10)
	list = Add(list, r, 3, 10)
	if len(list) != 1 || list[0].Weight != 8 {
		t.Fatalf("dedup failed: %+v", list)
	}
}

func TestMergeLimitEnforced(t *testing.T) {
	var list []Weighted
	for i := 0; i < 20; i++ {
		r := RSD{Point(affine.Constant(int64(i)))}
		list = Add(list, r, float64(i+1), 10)
	}
	if len(list) > 10 {
		t.Fatalf("limit not enforced: %d descriptors", len(list))
	}
	// Total weight is conserved.
	total := 0.0
	for _, w := range list {
		total += w.Weight
	}
	if total != 210 {
		t.Errorf("weight not conserved: %f", total)
	}
	// At least one merged descriptor is marked lossy.
	lossy := false
	for _, w := range list {
		lossy = lossy || w.Lossy
	}
	if !lossy {
		t.Errorf("expected lossy merges")
	}
}

func TestMergeTwoPointsExact(t *testing.T) {
	a := Point(affine.PidTerm(0, 2))
	b := Point(affine.PidTerm(6, 2))
	m := mergeAtom(a, b)
	if !m.Known || len(m.Terms) != 1 {
		t.Fatalf("merged atom: %+v", m)
	}
	// The merged atom must cover exactly {2p, 2p+6}.
	s := m.Section(1)
	if s.Lo != 2 || s.Hi != 8 || !s.Exact || s.Stride != 6 {
		t.Fatalf("merged section: %+v", s)
	}
}

func TestAtomString(t *testing.T) {
	if s := Point(affine.PidTerm(0, 1)).String(); s != "1*pid" {
		t.Errorf("point string: %q", s)
	}
	u := Atom{}
	if u.String() != "?" {
		t.Errorf("unknown string: %q", u.String())
	}
}
