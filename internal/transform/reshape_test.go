package transform

import (
	"strings"
	"testing"

	"falseshare/internal/lang/ast"
	"falseshare/internal/lang/types"
)

func TestApplyCyclicReshape(t *testing.T) {
	src := `
shared int a[64];
void main() {
    for (int r = 0; r < 100; r = r + 1) {
        for (int i = 0; i < 8; i = i + 1) {
            a[pid + i * nprocs] = a[pid + i * nprocs] + 1;
        }
    }
}
`
	f, info, pl := plan(t, src, Config{Nprocs: 8, BlockSize: 64})
	gt := pl.ByKind(KindGroupTranspose)
	if len(gt) != 1 || gt[0].Shape != ShapeCyclic || gt[0].Period != 8 {
		t.Fatalf("plan:\n%s", pl)
	}
	dirs, applied, err := apply(f, info, pl, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 1 {
		t.Fatalf("not applied:\n%s", pl)
	}
	out := ast.Print(f)
	if !strings.Contains(out, "a[8][8]") {
		t.Errorf("declaration not reshaped:\n%s", out)
	}
	if !strings.Contains(out, "% 8][") || !strings.Contains(out, "/ 8]") {
		t.Errorf("subscripts not rewritten:\n%s", out)
	}
	if dirs.PadRow["a"] != 64 {
		t.Errorf("row padding missing: %v", dirs.PadRow)
	}
	if _, err := types.Check(f); err != nil {
		t.Errorf("reshaped program fails check: %v\n%s", err, out)
	}
}

func TestApplyBlockReshape(t *testing.T) {
	src := `
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
`
	f, info, pl := plan(t, src, Config{Nprocs: 8, BlockSize: 64})
	gt := pl.ByKind(KindGroupTranspose)
	if len(gt) != 1 || gt[0].Shape != ShapeBlock || gt[0].Period != 12 {
		t.Fatalf("plan:\n%s", pl)
	}
	_, applied, err := apply(f, info, pl, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 1 {
		t.Fatalf("not applied:\n%s", pl)
	}
	out := ast.Print(f)
	if !strings.Contains(out, "a[8][12]") {
		t.Errorf("declaration not reshaped:\n%s", out)
	}
	if !strings.Contains(out, "/ 12][") || !strings.Contains(out, "% 12]") {
		t.Errorf("subscripts not rewritten:\n%s", out)
	}
	if _, err := types.Check(f); err != nil {
		t.Errorf("reshaped program fails check: %v\n%s", err, out)
	}
}

func TestApplyAlignRows(t *testing.T) {
	// Already process-major 2-D array: only directives, no rewrite.
	src := `
shared int rows[64][10];
void main() {
    for (int r = 0; r < 100; r = r + 1) {
        for (int i = 0; i < 10; i = i + 1) {
            rows[pid][i] = rows[pid][i] + 1;
        }
    }
}
`
	f, info, pl := plan(t, src, Config{Nprocs: 8, BlockSize: 128})
	gt := pl.ByKind(KindGroupTranspose)
	if len(gt) != 1 || gt[0].Shape != ShapeAlignRows {
		t.Fatalf("plan:\n%s", pl)
	}
	dirs, _, err := apply(f, info, pl, 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	if dirs.PadRow["rows"] != 128 || dirs.AlignVar["rows"] != 128 {
		t.Errorf("directives: %v %v", dirs.PadRow, dirs.AlignVar)
	}
	// Subscripts untouched.
	if !strings.Contains(ast.Print(f), "rows[pid][i]") {
		t.Errorf("align-rows must not rewrite subscripts")
	}
}

func TestHeapViaGroupDirective(t *testing.T) {
	src := `
shared double *slots;
void main() {
    if (pid == 0) {
        slots = alloc(double, 64);
    }
    barrier;
    for (int r = 0; r < 200; r = r + 1) {
        slots[pid] = slots[pid] + 1.0;
    }
}
`
	f, info, pl := plan(t, src, Config{Nprocs: 8, BlockSize: 64})
	dirs, applied, err := apply(f, info, pl, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range applied {
		if d.Kind == KindGroupTranspose && len(d.HeapVia) == 1 && d.HeapVia[0] == "slots" {
			found = true
		}
	}
	if !found {
		t.Fatalf("heap-via grouping not applied:\n%s", pl)
	}
	if dirs.PadHeapElem["slots"] != 64 {
		t.Errorf("heap pad directive missing: %v", dirs.PadHeapElem)
	}
}
