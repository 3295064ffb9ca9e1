package transform

import (
	"context"
	"strings"
	"testing"

	"falseshare/internal/analysis/nonconc"
	"falseshare/internal/analysis/pdv"
	"falseshare/internal/analysis/procs"
	"falseshare/internal/analysis/sideeffect"
	"falseshare/internal/cfg"
	"falseshare/internal/lang/ast"
	"falseshare/internal/lang/parser"
	"falseshare/internal/lang/types"
	"falseshare/internal/layout"
)

// apply runs ApplySafe and fails fast on the first failed decision.
func apply(f *ast.File, info *types.Info, pl *Plan, blockSize, nprocs int64) (*layout.Directives, []*Decision, error) {
	out := ApplySafe(context.Background(), f, info, pl, blockSize, nprocs, nil)
	if len(out.Failed) > 0 {
		return nil, nil, out.Failed[0]
	}
	return out.Dirs, out.Applied, nil
}

// plan runs the analysis + heuristics on src.
func plan(t *testing.T, src string, cfgc Config) (*ast.File, *types.Info, *Plan) {
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
	n := int(cfgc.defaults().Nprocs)
	pdvs := pdv.Analyze(info, int64(n))
	pr := procs.Analyze(prog, info, pdvs, n)
	ph, err := nonconc.Analyze(prog)
	if err != nil {
		t.Fatalf("nonconc: %v", err)
	}
	sum := sideeffect.Analyze(info, prog, pdvs, pr, ph, sideeffect.Config{Nprocs: n, StaticProfiling: true})
	return f, info, Decide(sum, info, cfgc)
}

func TestDecisionStrings(t *testing.T) {
	ds := []*Decision{
		{Kind: KindGroupTranspose, Shape: ShapeGroup, Arrays: []string{"a", "b"}, Period: 64, Reason: "r"},
		{Kind: KindIndirection, Struct: "S", Fields: []string{"f"}, Reason: "r"},
		{Kind: KindPadAlign, Globals: []string{"g"}, Reason: "r"},
		{Kind: KindLockPad, Globals: []string{"l"}, Reason: "r"},
	}
	for _, d := range ds {
		if d.String() == "" || !strings.Contains(d.String(), "r") {
			t.Errorf("decision string: %q", d)
		}
	}
	p := &Plan{Decisions: ds, Skipped: []string{"x: y"}}
	if !strings.Contains(p.String(), "skip: x: y") {
		t.Errorf("plan string:\n%s", p)
	}
	if len(p.ByKind(KindPadAlign)) != 1 {
		t.Errorf("ByKind wrong")
	}
}

func TestKindAndShapeStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindGroupTranspose: "group&transpose",
		KindIndirection:    "indirection",
		KindPadAlign:       "pad&align",
		KindLockPad:        "locks",
	} {
		if k.String() != want {
			t.Errorf("Kind %d = %q", k, k)
		}
	}
	for s, want := range map[GTShape]string{
		ShapeGroup: "group", ShapeTranspose: "transpose",
		ShapeCyclic: "cyclic-reshape", ShapeBlock: "block-align",
		ShapeAlignRows: "align-rows",
	} {
		if s.String() != want {
			t.Errorf("Shape %d = %q", s, s)
		}
	}
}

// The apply-side verification: a transformation whose rewrite cannot
// cover every access must be dropped, not half-applied.
func TestApplySkipsUncoverableTranspose(t *testing.T) {
	// w escapes through a helper that receives the row index only —
	// fine; but here we alias w via a partial index expression used
	// as a value, which the transpose rewrite cannot cover.
	src := `
shared int w[100][16];
shared int sink;
void main() {
    for (int r = 0; r < 100; r = r + 1) {
        for (int i = 0; i < 100; i = i + 1) {
            w[i][pid] = w[i][pid] + 1;
        }
    }
    sink = w[3][4];
}
`
	f, info, pl := plan(t, src, Config{Nprocs: 8, BlockSize: 64})
	// The decision exists (pattern is per-process)...
	if len(pl.ByKind(KindGroupTranspose)) != 1 {
		t.Fatalf("expected a transpose decision:\n%s", pl)
	}
	// ...and applies fine, because w[3][4] is still full-rank.
	dirs, applied, err := apply(f, info, pl, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 1 || dirs.PadRow["w"] != 64 {
		t.Fatalf("transpose should apply: %v", applied)
	}
	// The constant subscript must be swapped too.
	out := ast.Print(f)
	if !strings.Contains(out, "w[4][3]") {
		t.Errorf("constant access not swapped:\n%s", out)
	}
}

func TestApplyGroupRemovesOldDecls(t *testing.T) {
	src := `
shared int a[32];
shared int b[32];
void main() {
    for (int r = 0; r < 1000; r = r + 1) {
        a[pid] = a[pid] + 1;
        b[pid] = b[pid] + a[pid];
    }
}
`
	f, info, pl := plan(t, src, Config{Nprocs: 8, BlockSize: 64})
	_, applied, err := apply(f, info, pl, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) == 0 {
		t.Fatalf("nothing applied:\n%s", pl)
	}
	if f.Global("a") != nil || f.Global("b") != nil {
		t.Errorf("grouped arrays must be removed")
	}
	if f.Struct("GTrec1") == nil || f.Global("gtv1") == nil {
		t.Errorf("grouped record/array missing:\n%s", ast.Print(f))
	}
	// Re-check the rewritten program.
	if _, err := types.Check(f); err != nil {
		t.Errorf("transformed file fails check: %v", err)
	}
}

func TestGroupNameCollisionAvoided(t *testing.T) {
	src := `
shared int GTrec1;
shared int gtv1;
shared int a[32];
void main() {
    gtv1 = 0;
    GTrec1 = 0;
    for (int r = 0; r < 1000; r = r + 1) {
        a[pid] = a[pid] + 1;
    }
}
`
	f, info, pl := plan(t, src, Config{Nprocs: 8, BlockSize: 64})
	_, _, err := apply(f, info, pl, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if f.Struct("GTrec2") == nil && f.Global("gtv2") == nil {
		t.Errorf("collision not avoided:\n%s", ast.Print(f))
	}
	if _, err := types.Check(f); err != nil {
		t.Errorf("transformed file fails check: %v", err)
	}
}

func TestIndirectionSkipsStaticInstances(t *testing.T) {
	src := `
struct S { int v; };
shared struct S statics[8];
shared struct S *dyn[64];
void main() {
    struct S *p;
    p = alloc(struct S);
    dyn[pid] = p;
    barrier;
    for (int r = 0; r < 1000; r = r + 1) {
        dyn[pid]->v = dyn[pid]->v + 1;
    }
}
`
	f, info, pl := plan(t, src, Config{Nprocs: 8, BlockSize: 64})
	_, applied, err := apply(f, info, pl, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range applied {
		if d.Kind == KindIndirection {
			t.Fatalf("indirection must be skipped for structs with static instances")
		}
	}
	found := false
	for _, s := range pl.Skipped {
		if strings.Contains(s, "static instances") {
			found = true
		}
	}
	if !found {
		t.Errorf("skip reason missing:\n%s", pl)
	}
}

func TestIndirectionArrayAllocLoop(t *testing.T) {
	src := `
struct S { int v; struct S *next; };
shared struct S *blocks[64];
void main() {
    struct S *arr;
    arr = alloc(struct S, 10);
    blocks[pid] = arr;
    barrier;
    for (int r = 0; r < 1000; r = r + 1) {
        for (int i = 0; i < 10; i = i + 1) {
            blocks[pid][i].v = blocks[pid][i].v + 1;
        }
    }
}
`
	f, info, pl := plan(t, src, Config{Nprocs: 8, BlockSize: 64})
	if len(pl.ByKind(KindIndirection)) != 1 {
		t.Fatalf("expected indirection:\n%s", pl)
	}
	_, applied, err := apply(f, info, pl, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) == 0 {
		t.Fatalf("indirection not applied:\n%s", pl)
	}
	out := ast.Print(f)
	// The array allocation must be followed by an injection loop.
	if !strings.Contains(out, "allocpp(int)") || !strings.Contains(out, "__ind") {
		t.Errorf("array allocation loop missing:\n%s", out)
	}
	if _, err := types.Check(f); err != nil {
		t.Errorf("transformed file fails check: %v\n%s", err, out)
	}
}

func TestNakedIfBodyAllocSite(t *testing.T) {
	// The alloc site is a naked (unbraced) if-body: the injector must
	// wrap it in a block.
	src := `
struct S { int v; struct S *next; };
shared struct S *q[64];
void main() {
    struct S *p;
    p = 0;
    if (pid >= 0) p = alloc(struct S);
    if (p != 0) {
        p->next = q[pid];
        q[pid] = p;
    }
    barrier;
    for (int r = 0; r < 1000; r = r + 1) {
        struct S *w;
        w = q[pid];
        while (w != 0) {
            w->v = w->v + 1;
            w = w->next;
        }
    }
}
`
	f, info, pl := plan(t, src, Config{Nprocs: 8, BlockSize: 64})
	if len(pl.ByKind(KindIndirection)) != 1 {
		t.Fatalf("expected indirection:\n%s", pl)
	}
	_, _, err := apply(f, info, pl, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	out := ast.Print(f)
	if !strings.Contains(out, "allocpp(int)") {
		t.Errorf("injection missing for naked if body:\n%s", out)
	}
	if _, err := types.Check(f); err != nil {
		t.Errorf("transformed file fails check: %v\n%s", err, out)
	}
}

func TestHeuristicThresholdConfig(t *testing.T) {
	src := `
shared int hot[32];
void main() {
    for (int r = 0; r < 20; r = r + 1) {
        hot[pid] = hot[pid] + 1;
    }
}
`
	// Weight 40 (20 writes + 20 reads) < default threshold 50: skipped.
	_, _, pl := plan(t, src, Config{Nprocs: 8, BlockSize: 64})
	if len(pl.Decisions) != 0 {
		t.Errorf("should be under threshold:\n%s", pl)
	}
	// Lower threshold: transformed.
	_, _, pl = plan(t, src, Config{Nprocs: 8, BlockSize: 64, FreqThreshold: 10})
	if len(pl.ByKind(KindGroupTranspose)) != 1 {
		t.Errorf("should fire with low threshold:\n%s", pl)
	}
}
