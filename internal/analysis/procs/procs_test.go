package procs

import (
	"testing"
	"testing/quick"

	"falseshare/internal/analysis/pdv"
	"falseshare/internal/cfg"
	"falseshare/internal/lang/ast"
	"falseshare/internal/lang/parser"
	"falseshare/internal/lang/types"
)

func TestSetOperations(t *testing.T) {
	s := All(4)
	if s.Count() != 4 || !s.Has(0) || !s.Has(3) || s.Has(4) {
		t.Fatalf("All(4) = %s", s)
	}
	if got := Single(2).Union(Single(5)).Count(); got != 2 {
		t.Errorf("union count = %d", got)
	}
	if got := All(4).Minus(Single(1)).Procs(); len(got) != 3 {
		t.Errorf("minus = %v", got)
	}
	if !Set(0).Empty() || All(1).Empty() {
		t.Errorf("Empty wrong")
	}
}

func TestSetString(t *testing.T) {
	if got := All(12).String(); got != "{0..11}" {
		t.Errorf("contiguous set = %q", got)
	}
	if got := Single(0).Union(Single(5)).String(); got != "{0,5}" {
		t.Errorf("sparse set = %q", got)
	}
	if got := Set(0).String(); got != "{}" {
		t.Errorf("empty set = %q", got)
	}
}

// Set algebra properties.
func TestSetProperties(t *testing.T) {
	union := func(a, b uint64) bool {
		sa, sb := Set(a), Set(b)
		u := sa.Union(sb)
		for _, p := range sa.Procs() {
			if !u.Has(p) {
				return false
			}
		}
		for _, p := range u.Procs() {
			if !sa.Has(p) && !sb.Has(p) {
				return false
			}
		}
		return true
	}
	deMorgan := func(a, b uint64) bool {
		sa, sb := Set(a), Set(b)
		return sa.Minus(sb) == sa&^sb
	}
	countAdd := func(a uint64, pRaw uint8) bool {
		p := int(pRaw % 64)
		s := Set(a)
		want := s.Count()
		if !s.Has(p) {
			want++
		}
		return s.Add(p).Count() == want
	}
	for name, f := range map[string]any{"union": union, "deMorgan": deMorgan, "countAdd": countAdd} {
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// analyzeSrc runs the front end + per-process analysis.
func analyzeSrc(t *testing.T, src string, nprocs int) (*cfg.CallGraph, *types.Info, *Result) {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := types.Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	prog := cfg.BuildProgram(f)
	pdvs := pdv.Analyze(info, int64(nprocs))
	return prog, info, Analyze(prog, info, pdvs, nprocs)
}

// stmtSet finds the node set of the statement assigning to the named
// global.
func stmtSet(t *testing.T, prog *cfg.CallGraph, info *types.Info, res *Result, fn, global string) Set {
	t.Helper()
	g := prog.Graphs[fn]
	var found Set
	ok := false
	for _, n := range g.Nodes {
		for _, s := range n.Stmts {
			if as, isAssign := s.(*ast.AssignStmt); isAssign {
				if id, isIdent := as.LHS.(*ast.Ident); isIdent && id.Name == global {
					found = res.Node[n]
					ok = true
				}
			}
		}
	}
	if !ok {
		t.Fatalf("no assignment to %q in %q", global, fn)
	}
	return found
}

func TestPidEqualityBranch(t *testing.T) {
	prog, info, res := analyzeSrc(t, `
shared int a;
shared int b;
shared int c;
void main() {
    if (pid == 0) {
        a = 1;
    } else {
        b = 1;
    }
    c = 1;
}
`, 8)
	if got := stmtSet(t, prog, info, res, "main", "a"); got != Single(0) {
		t.Errorf("a set = %s, want {0}", got)
	}
	if got := stmtSet(t, prog, info, res, "main", "b"); got != All(8).Minus(Single(0)) {
		t.Errorf("b set = %s, want {1..7}", got)
	}
	if got := stmtSet(t, prog, info, res, "main", "c"); got != All(8) {
		t.Errorf("c set = %s, want all", got)
	}
}

func TestPidRangeBranch(t *testing.T) {
	prog, info, res := analyzeSrc(t, `
shared int lo;
shared int hi;
void main() {
    if (pid < 3) {
        lo = 1;
    }
    if (pid >= 6) {
        hi = 1;
    }
}
`, 8)
	if got := stmtSet(t, prog, info, res, "main", "lo"); got.Count() != 3 || !got.Has(2) || got.Has(3) {
		t.Errorf("lo set = %s", got)
	}
	if got := stmtSet(t, prog, info, res, "main", "hi"); got.Count() != 2 || !got.Has(6) || !got.Has(7) {
		t.Errorf("hi set = %s", got)
	}
}

func TestPDVBranch(t *testing.T) {
	// A branch on a copied PDV restricts like a branch on pid.
	prog, info, res := analyzeSrc(t, `
shared int a;
private int myid;
void main() {
    myid = pid;
    if (myid % 1 == 0 && myid == 2) {
        a = 1;
    }
}
`, 8)
	got := stmtSet(t, prog, info, res, "main", "a")
	// myid % 1 is not affine, so the && is undecidable; the analysis
	// must conservatively keep everyone.
	if got != All(8) {
		t.Errorf("undecidable condition must not restrict: %s", got)
	}
}

func TestDecidableConjunction(t *testing.T) {
	prog, info, res := analyzeSrc(t, `
shared int a;
void main() {
    if (pid > 1 && pid < 4) {
        a = 1;
    }
}
`, 8)
	got := stmtSet(t, prog, info, res, "main", "a")
	if got != Single(2).Union(Single(3)) {
		t.Errorf("conjunction set = %s, want {2,3}", got)
	}
}

func TestCalleeInheritsCallSiteSet(t *testing.T) {
	prog, info, res := analyzeSrc(t, `
shared int a;
void helper() {
    a = 1;
}
void main() {
    if (pid == 0) {
        helper();
    }
}
`, 8)
	if got := res.Func["helper"]; got != Single(0) {
		t.Errorf("helper base set = %s, want {0}", got)
	}
	if got := stmtSet(t, prog, info, res, "helper", "a"); got != Single(0) {
		t.Errorf("helper body set = %s, want {0}", got)
	}
}

func TestCalleeUnionOverSites(t *testing.T) {
	_, _, res := analyzeSrc(t, `
shared int a;
void helper() {
    a = 1;
}
void main() {
    if (pid == 0) {
        helper();
    }
    if (pid == 5) {
        helper();
    }
}
`, 8)
	if got := res.Func["helper"]; got != Single(0).Union(Single(5)) {
		t.Errorf("helper base set = %s, want {0,5}", got)
	}
}

func TestForLoopEntryFilter(t *testing.T) {
	// Only processes whose first-iteration test succeeds enter the
	// body: for (i = pid; i < 4; ...) runs for pids 0..3 only.
	prog, info, res := analyzeSrc(t, `
shared int a;
void main() {
    for (int i = pid; i < 4; i = i + 1) {
        a = 1;
    }
}
`, 8)
	got := stmtSet(t, prog, info, res, "main", "a")
	if got != All(4) {
		t.Errorf("loop body set = %s, want {0..3}", got)
	}
}
