package rsd_test

import (
	"testing"

	"falseshare/internal/analysis/affine"
	"falseshare/internal/analysis/rsd"
	"falseshare/internal/core"
	"falseshare/internal/lang/types"
	"falseshare/internal/workload"
	"falseshare/internal/workload/gen"
)

// checkPairs asserts, for every pair of descriptors and every pair of
// their atoms, that the structural comparisons agree with comparing
// the rendered strings, which is what they replace.
func checkPairs(t *testing.T, name string, ds []rsd.RSD) (equal int) {
	t.Helper()
	var atoms []rsd.Atom
	for _, d := range ds {
		atoms = append(atoms, d...)
	}
	keys := make([]string, len(ds))
	for i, d := range ds {
		keys[i] = d.String()
	}
	for i := range ds {
		for j := range ds {
			want := keys[i] == keys[j]
			if got := rsd.Equal(ds[i], ds[j]); got != want {
				t.Errorf("%s: Equal(%s, %s) = %v, strings equal = %v", name, keys[i], keys[j], got, want)
			}
			if want && i != j {
				equal++
			}
		}
	}
	akeys := make([]string, len(atoms))
	for i, a := range atoms {
		akeys[i] = a.String()
	}
	for i := range atoms {
		for j := range atoms {
			if got, want := rsd.AtomEqual(atoms[i], atoms[j]), akeys[i] == akeys[j]; got != want {
				t.Errorf("%s: AtomEqual(%s, %s) = %v, strings equal = %v", name, akeys[i], akeys[j], got, want)
			}
		}
	}
	return equal
}

// TestEqualMatchesStringOnSummaries compares every pair of descriptors
// in every object summary of the ten kernels, base and programmer
// sources, and of the generated corpus: the descriptors each access
// produced, and those the lists kept after deduplication and merging.
func TestEqualMatchesStringOnSummaries(t *testing.T) {
	type program struct {
		name, src string
		procs     int
	}
	var progs []program
	for _, b := range workload.All() {
		progs = append(progs, program{b.Name + "/base", b.Source(1), 12})
		if b.PSource != nil {
			progs = append(progs, program{b.Name + "/P", b.PSource(1), 12})
		}
	}
	for _, p := range gen.Corpus(64, 1) {
		progs = append(progs, program{"gen/" + p.Name(), gen.Generate(p), 8})
	}
	equal := 0
	for _, p := range progs {
		res, err := core.Restructure(p.src, core.Options{Nprocs: p.procs, BlockSize: 64})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		for key, os := range res.Summary.Objects {
			var ds []rsd.RSD
			for _, a := range os.Accesses {
				ds = append(ds, a.R)
			}
			for _, w := range append(os.Reads, os.Writes...) {
				ds = append(ds, w.R)
			}
			equal += checkPairs(t, p.name+"/"+key, ds)
		}
	}
	if equal == 0 {
		t.Fatal("no two distinct descriptors compared equal")
	}
}

// TestEqualEdgeCases compares hand-made pairs where the rendered
// strings and the fields disagree, or nearly do.
func TestEqualEdgeCases(t *testing.T) {
	iv := func(fn, name string, slot int) *types.Symbol {
		return &types.Symbol{Name: name, Kind: types.LocalVar, Func: fn, Slot: slot}
	}
	fi, gi, gj, hi := iv("f", "i", 0), iv("g", "i", 0), iv("g", "j", 1), iv("h", "i", 0)
	form := func(c, pid int64, ivs map[*types.Symbol]int64, residue bool) affine.Expr {
		return affine.Expr{Const: c, Pid: pid, IV: ivs, Residue: residue}
	}
	bounded := func(coef int64, lo, hi affine.Expr) rsd.IVTerm {
		return rsd.IVTerm{Coef: coef, Lo: lo, Hi: hi, Step: 1, Bounded: true}
	}
	unbounded := rsd.IVTerm{Coef: 1, Step: 1}
	known := func(base affine.Expr, terms ...rsd.IVTerm) rsd.Atom {
		return rsd.Atom{Known: true, Base: base, Terms: terms}
	}
	unknown := func(terms ...rsd.IVTerm) rsd.Atom { return rsd.Atom{Terms: terms} }

	cases := []struct {
		name string
		a, b rsd.RSD
		want bool
	}{
		{"alike-named ivs of two functions",
			rsd.RSD{known(form(0, 0, map[*types.Symbol]int64{fi: 1}, false))},
			rsd.RSD{known(form(0, 0, map[*types.Symbol]int64{gi: 1}, false))}, true},
		{"ivs in another order",
			rsd.RSD{known(form(0, 0, map[*types.Symbol]int64{fi: 1, gj: 2}, false))},
			rsd.RSD{known(form(0, 0, map[*types.Symbol]int64{gj: 2, hi: 1}, false))}, false},
		{"zero iv coefficient against none",
			rsd.RSD{known(form(0, 0, map[*types.Symbol]int64{fi: 0}, false))},
			rsd.RSD{known(form(0, 0, nil, false))}, false},
		{"term bounds with alike-named ivs",
			rsd.RSD{known(affine.Constant(0), bounded(1, affine.Constant(0), form(0, 0, map[*types.Symbol]int64{fi: 1}, false)))},
			rsd.RSD{known(affine.Constant(0), bounded(1, affine.Constant(0), form(0, 0, map[*types.Symbol]int64{hi: 1}, false)))}, true},
		{"bounded term against unbounded",
			rsd.RSD{unknown(bounded(1, affine.Unknown(), affine.Unknown()))},
			rsd.RSD{unknown(unbounded)}, false},
		{"unbounded terms ignore their bounds",
			rsd.RSD{unknown(rsd.IVTerm{Coef: 1, Step: 1, Lo: affine.Constant(3)})},
			rsd.RSD{unknown(unbounded)}, true},
		{"unknown atom with terms against without",
			rsd.RSD{unknown(unbounded)},
			rsd.RSD{unknown()}, false},
		{"unknown atoms ignore their bases",
			rsd.RSD{rsd.Atom{Base: affine.PidTerm(2, 1)}},
			rsd.RSD{unknown()}, true},
		{"unknown atom against a known residue base",
			rsd.RSD{unknown(unbounded)},
			rsd.RSD{known(affine.Unknown(), unbounded)}, true},
		{"unknown atom against a known base with a residue",
			rsd.RSD{unknown()},
			rsd.RSD{known(form(0, 1, nil, true))}, false},
		{"residue against none",
			rsd.RSD{known(form(3, 0, nil, true))},
			rsd.RSD{known(affine.Constant(3))}, false},
		{"residues alike",
			rsd.RSD{known(form(3, 2, nil, true))},
			rsd.RSD{known(form(3, 2, map[*types.Symbol]int64{}, true))}, true},
		{"zero base against an empty one",
			rsd.RSD{known(affine.Constant(0))},
			rsd.RSD{known(affine.Expr{})}, true},
		{"scalar against scalar",
			rsd.RSD{}, nil, true},
		{"rank differs",
			rsd.RSD{unknown()},
			rsd.RSD{unknown(), unknown()}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if strEq := c.a.String() == c.b.String(); strEq != c.want {
				t.Fatalf("case is mislabelled: %s vs %s", c.a, c.b)
			}
			for _, pair := range [][2]rsd.RSD{{c.a, c.b}, {c.b, c.a}} {
				if got := rsd.Equal(pair[0], pair[1]); got != c.want {
					t.Errorf("Equal(%s, %s) = %v, want %v", pair[0], pair[1], got, c.want)
				}
			}
			checkPairs(t, c.name, []rsd.RSD{c.a, c.b})
		})
	}
}
