// Tests live in verify_test because constructing Sides goes through
// core.Restructure, and core imports verify.
package verify_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"falseshare/internal/core"
	"falseshare/internal/transform"
	"falseshare/internal/verify"
	"falseshare/internal/workload"
)

func side(p *core.Program) verify.Side {
	return verify.Side{File: p.File, Info: p.Info, Layout: p.Layout}
}

func restructure(t *testing.T, src string, nprocs int) *core.Result {
	t.Helper()
	res, err := core.Restructure(src, core.Options{
		Nprocs:     nprocs,
		BlockSize:  64,
		Heuristics: transform.Config{FreqThreshold: 2},
	})
	if err != nil {
		t.Fatalf("Restructure: %v", err)
	}
	return res
}

// parseOnly builds a Side for a program without transforming it, so
// tests can hand-craft "transformed" sides that genuinely diverge.
func parseOnly(t *testing.T, src string, nprocs int) verify.Side {
	t.Helper()
	prog, err := core.Compile(src, core.Options{Nprocs: nprocs, BlockSize: 64})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return side(prog)
}

// TestVerifyShapes runs the oracle over one program per remapping
// shape and checks it accepts the (correct) transformation while
// actually comparing cells through the remap.
func TestVerifyShapes(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want transform.GTShape
	}{
		{"group", `
shared int cell[16];
shared int hits[16];
void main() {
    for (int i = 0; i < 1000; i = i + 1) {
        cell[pid] = cell[pid] + 1;
        hits[pid] = hits[pid] + 2;
    }
}
`, transform.ShapeGroup},
		{"transpose", `
shared double w[50][8];
void main() {
    for (int i = 0; i < 50; i = i + 1) {
        w[i][pid] = w[i][pid] + 1.0;
    }
}
`, transform.ShapeTranspose},
		{"cyclic", `
shared int a[64];
void main() {
    for (int r = 0; r < 100; r = r + 1) {
        for (int i = pid; i < 64; i = i + nprocs) {
            a[i] = a[i] + 1;
        }
    }
}
`, transform.ShapeCyclic},
		{"block", `
shared int a[96];
void main() {
    int chunk;
    int lo;
    chunk = 96 / nprocs;
    lo = pid * chunk;
    for (int r = 0; r < 100; r = r + 1) {
        for (int i = lo; i < lo + chunk; i = i + 1) {
            a[i] = a[i] + 1;
        }
    }
}
`, transform.ShapeBlock},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := restructure(t, tc.src, 8)
			gt := res.Plan.ByKind(transform.KindGroupTranspose)
			if len(gt) != 1 || gt[0].Shape != tc.want {
				t.Fatalf("plan did not produce shape %v:\n%s", tc.want, res.Plan)
			}
			rep, err := verify.Run(side(res.Original), side(res.Transformed), res.Applied, verify.Options{})
			if err != nil {
				t.Fatalf("verify.Run: %v", err)
			}
			if rep.Skipped || !rep.OK {
				t.Fatalf("verdict not OK:\n%s", rep)
			}
			cells := 0
			for _, v := range rep.Objects {
				cells += v.Cells
			}
			if cells == 0 {
				t.Fatalf("no cells compared:\n%s", rep)
			}
		})
	}
}

// TestVerifyIndirection checks the oracle follows heap pointers and
// the extra indirection the transformation introduces, skipping
// pointer-valued cells rather than comparing raw addresses.
func TestVerifyIndirection(t *testing.T) {
	src := `
struct Node {
    int count;
    struct Node *next;
};
shared struct Node *heads[16];
void main() {
    struct Node *n;
    n = alloc(struct Node);
    n->next = 0;
    heads[pid] = n;
    barrier;
    for (int i = 0; i < 1000; i = i + 1) {
        struct Node *p;
        p = heads[pid];
        while (p != 0) {
            p->count = p->count + 1;
            p = p->next;
        }
    }
}
`
	res := restructure(t, src, 8)
	if len(res.Plan.ByKind(transform.KindIndirection)) != 1 {
		t.Fatalf("expected indirection:\n%s", res.Plan)
	}
	rep, err := verify.Run(side(res.Original), side(res.Transformed), res.Applied, verify.Options{})
	if err != nil {
		t.Fatalf("verify.Run: %v", err)
	}
	if rep.Skipped || !rep.OK {
		t.Fatalf("verdict not OK:\n%s", rep)
	}
	var cells, skipped int
	for _, v := range rep.Objects {
		cells += v.Cells
		skipped += v.Skipped
	}
	if cells == 0 {
		t.Fatalf("no heap cells compared:\n%s", rep)
	}
	if skipped == 0 {
		t.Fatalf("pointer cells (next) should be skipped, not compared:\n%s", rep)
	}
}

// TestVerifyDetectsDivergence feeds the oracle two programs that
// really compute different values; with no decisions applied the
// identity remap must expose the difference.
func TestVerifyDetectsDivergence(t *testing.T) {
	const template = `
shared int out[8];
void main() {
    out[pid] = VALUE;
}
`
	orig := parseOnly(t, strings.Replace(template, "VALUE", "1", 1), 8)
	trans := parseOnly(t, strings.Replace(template, "VALUE", "2", 1), 8)
	rep, err := verify.Run(orig, trans, nil, verify.Options{})
	if err != nil {
		t.Fatalf("verify.Run: %v", err)
	}
	if rep.OK || rep.Skipped {
		t.Fatalf("divergence not detected:\n%s", rep)
	}
	fail := rep.Failing()
	if len(fail) != 1 || fail[0].Object != "out" {
		t.Fatalf("wrong failing object: %+v", fail)
	}
	if fail[0].First == nil || !strings.HasPrefix(fail[0].First.Cell, "out[") {
		t.Fatalf("missing divergence cell: %+v", fail[0])
	}
}

// TestVerifyTolerance: double cells compare with a relative
// tolerance (lock order can reassociate FP reductions), so a tiny
// relative difference passes and a gross one fails.
func TestVerifyTolerance(t *testing.T) {
	const template = `
shared double x;
void main() {
    if (pid == 0) {
        x = VALUE;
    }
}
`
	orig := parseOnly(t, strings.Replace(template, "VALUE", "1000000.0", 1), 2)

	near := parseOnly(t, strings.Replace(template, "VALUE", "1000000.0000001", 1), 2)
	rep, err := verify.Run(orig, near, nil, verify.Options{})
	if err != nil {
		t.Fatalf("verify.Run: %v", err)
	}
	if !rep.OK {
		t.Fatalf("within-tolerance difference rejected:\n%s", rep)
	}

	far := parseOnly(t, strings.Replace(template, "VALUE", "1000100.0", 1), 2)
	rep, err = verify.Run(orig, far, nil, verify.Options{})
	if err != nil {
		t.Fatalf("verify.Run: %v", err)
	}
	if rep.OK {
		t.Fatalf("out-of-tolerance difference accepted:\n%s", rep)
	}
}

// TestVerifyStepBudget: an original-side run that exhausts the step
// budget makes the report inconclusive (Skipped), not a failure —
// a slow program is not the transformation's fault.
func TestVerifyStepBudget(t *testing.T) {
	src := `
shared int n;
void main() {
    for (int i = 0; i < 100000; i = i + 1) {
        n = n + 1;
    }
}
`
	s := parseOnly(t, src, 2)
	rep, err := verify.Run(s, s, nil, verify.Options{StepBudget: 100})
	if err != nil {
		t.Fatalf("verify.Run: %v", err)
	}
	if !rep.Skipped {
		t.Fatalf("expected inconclusive report:\n%s", rep)
	}
	if !strings.Contains(rep.SkipReason, "budget") {
		t.Fatalf("skip reason %q does not mention the budget", rep.SkipReason)
	}
	if rep.OK {
		t.Fatalf("skipped report must not claim OK:\n%s", rep)
	}
}

// TestVerifyCancelled: a run stopped by its context returns the
// context's error, not a skipped or failed report.
func TestVerifyCancelled(t *testing.T) {
	res := restructure(t, workload.Get("maxflow").Source(1), 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := verify.RunCtx(ctx, side(res.Original), side(res.Transformed), res.Applied, verify.Options{})
	if !errors.Is(err, context.Canceled) || rep != nil {
		t.Fatalf("RunCtx on a cancelled context = %v, %v; want context.Canceled and no report", rep, err)
	}
}
