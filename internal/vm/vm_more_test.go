package vm_test

import (
	"context"
	"reflect"
	"testing"

	"falseshare/internal/core"
	"falseshare/internal/vm"
)

func TestForallExecution(t *testing.T) {
	src := `
shared int a[64];
shared int sum;
void main() {
    forall (int i = 0; i < 64) {
        a[i] = i * 2;
    }
    if (pid == 0) {
        for (int i = 0; i < 64; i = i + 1) {
            sum = sum + a[i];
        }
    }
}
`
	m, _, prog := run(t, src, 8)
	if got := globalInt(t, m, prog, "sum"); got != 64*63 {
		t.Errorf("sum = %d, want %d", got, 64*63)
	}
	if m.Barriers() != 1 {
		t.Errorf("forall must contribute its implicit barrier: %d", m.Barriers())
	}
}

func TestTraceDeterminism(t *testing.T) {
	src := `
shared int a[32];
lock l;
shared int c;
void main() {
    for (int i = pid; i < 32; i = i + nprocs) {
        a[i] = a[i] + 1;
    }
    barrier;
    acquire(l);
    c = c + 1;
    release(l);
}
`
	runOnce := func() []vm.Ref {
		prog, err := core.CompileCtx(context.Background(), src, core.Options{Nprocs: 6, BlockSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, 6)
		if err != nil {
			t.Fatal(err)
		}
		var trace []vm.Ref
		if err := vm.New(bc).Run(func(r vm.Ref) { trace = append(trace, r) }); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := runOnce(), runOnce()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("trace nondeterministic: lengths %d vs %d", len(a), len(b))
	}
}

func TestNegativeDivisionTruncates(t *testing.T) {
	// parc follows C (and Go) truncated division.
	src := `
shared int out[4];
void main() {
    if (pid == 0) {
        int a;
        a = 0 - 7;
        out[0] = a / 2;
        out[1] = a % 2;
        out[2] = 7 / (0 - 2);
        out[3] = 7 % (0 - 2);
    }
}
`
	m, _, prog := run(t, src, 1)
	want := []int64{-3, -1, -3, 1}
	for i, w := range want {
		if got := globalInt(t, m, prog, "out", int64(i)); got != w {
			t.Errorf("out[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestShortCircuitSideEffects(t *testing.T) {
	// The RHS of && must not be evaluated when the LHS is false —
	// observable through shared memory reference counts.
	src := `
shared int touched;
shared int flag;
int touch() {
    touched = touched + 1;
    return 1;
}
void main() {
    if (pid == 0) {
        if (flag == 1 && touch() == 1) {
            flag = 2;
        }
        if (flag == 0 || touch() == 1) {
            flag = 3;
        }
    }
}
`
	m, _, prog := run(t, src, 1)
	// First &&: flag==1 false, touch not called. Second ||: flag==0
	// true (flag still 0), touch not called.
	if got := globalInt(t, m, prog, "touched"); got != 0 {
		t.Errorf("touched = %d, want 0 (short circuit violated)", got)
	}
	if got := globalInt(t, m, prog, "flag"); got != 3 {
		t.Errorf("flag = %d, want 3", got)
	}
}

func TestNestedStructArrays(t *testing.T) {
	src := `
struct Inner {
    int v;
    int pad;
};
struct Outer {
    int id;
    struct Inner *in;
};
shared struct Outer *objs;
shared int total;
void main() {
    if (pid == 0) {
        objs = alloc(struct Outer, 5);
        for (int i = 0; i < 5; i = i + 1) {
            objs[i].id = i;
            objs[i].in = alloc(struct Inner);
            objs[i].in->v = i * 10;
        }
        for (int i = 0; i < 5; i = i + 1) {
            total = total + objs[i].id + objs[i].in->v;
        }
    }
}
`
	m, _, prog := run(t, src, 2)
	// ids sum to 10, inner values to 0+10+20+30+40 = 100.
	if got := globalInt(t, m, prog, "total"); got != 110 {
		t.Errorf("total = %d, want 110", got)
	}
}

func TestDeepRecursionFrames(t *testing.T) {
	src := `
shared int out;
int depth(int n) {
    int local[4];
    local[0] = n;
    if (n == 0) { return 0; }
    return local[0] + depth(n - 1);
}
void main() {
    if (pid == 0) {
        out = depth(100);
    }
}
`
	m, _, prog := run(t, src, 1)
	if got := globalInt(t, m, prog, "out"); got != 5050 {
		t.Errorf("out = %d, want 5050", got)
	}
}

func TestInstrBudget(t *testing.T) {
	src := `
shared int x;
void main() {
    while (1 == 1) {
        x = x + 1;
    }
}
`
	prog, err := core.CompileCtx(context.Background(), src, core.Options{Nprocs: 1, BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(bc)
	m.MaxInstrs = 100000
	err = m.Run(nil)
	if err == nil || !contains(err.Error(), "budget") {
		t.Fatalf("expected budget error, got %v", err)
	}
}

func TestBarrierCountsAndPhases(t *testing.T) {
	src := `
shared int x;
void main() {
    for (int i = 0; i < 5; i = i + 1) {
        x = x + 1;
        barrier;
    }
}
`
	m, _, _ := run(t, src, 4)
	if m.Barriers() != 5 {
		t.Errorf("barrier episodes = %d, want 5", m.Barriers())
	}
}

func TestLockFairnessNoStarvation(t *testing.T) {
	// All processes must eventually acquire the contended lock.
	src := `
shared int got[16];
lock l;
void main() {
    for (int i = 0; i < 50; i = i + 1) {
        acquire(l);
        got[pid] = got[pid] + 1;
        release(l);
    }
}
`
	m, _, prog := run(t, src, 8)
	for p := int64(0); p < 8; p++ {
		if got := globalInt(t, m, prog, "got", p); got != 50 {
			t.Errorf("proc %d acquired %d times, want 50", p, got)
		}
	}
}

func TestDisasmReadable(t *testing.T) {
	src := `
shared int x;
void main() { x = 1 + 2; }
`
	prog, err := core.CompileCtx(context.Background(), src, core.Options{Nprocs: 1, BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := bc.Funcs[bc.Main].Disasm()
	for _, want := range []string{"func main", "push", "store4", "halt"} {
		if !contains(d, want) {
			t.Errorf("disasm missing %q:\n%s", want, d)
		}
	}
}

func TestPrivateGlobalsArePerProcess(t *testing.T) {
	src := `
private int mine;
shared int out[8];
void main() {
    mine = pid * 100;
    barrier;
    out[pid] = mine;
}
`
	m, _, prog := run(t, src, 8)
	for p := int64(0); p < 8; p++ {
		if got := globalInt(t, m, prog, "out", p); got != p*100 {
			t.Errorf("out[%d] = %d, want %d", p, got, p*100)
		}
	}
}

// runErr compiles and runs src, returning the run's error.
func runErr(t *testing.T, src string, nprocs int) error {
	t.Helper()
	prog, err := core.CompileCtx(context.Background(), src, core.Options{Nprocs: nprocs, BlockSize: 64})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, nprocs)
	if err != nil {
		t.Fatalf("vm compile: %v", err)
	}
	return vm.New(bc).Run(nil)
}

// TestAllocNegativeCountRejected: a negative element count is an
// error for both allocators. Before the arena allocator checked it,
// allocpp(int, 0-4) moved the arena pointer back, so the next
// allocation handed out storage an earlier one still owned.
func TestAllocNegativeCountRejected(t *testing.T) {
	for _, alloc := range []string{"alloc", "allocpp"} {
		src := `
shared int out;
void main() {
    int *a;
    int *b;
    a = ` + alloc + `(int, 4);
    a[0] = 1;
    b = ` + alloc + `(int, 0 - 4);
    b = ` + alloc + `(int, 4);
    b[0] = 7;
    out = a[0];
}
`
		err := runErr(t, src, 1)
		if err == nil || !contains(err.Error(), "negative allocation count -4") {
			t.Errorf("%s: want negative-count error, got %v", alloc, err)
		}
	}
}

// TestAllocHugeCountExhausts: a count whose byte size overflows int64
// must fail the limit check, not wrap to a small size that fits.
// 8 bytes × 2^62 elements wraps to 0.
func TestAllocHugeCountExhausts(t *testing.T) {
	for alloc, want := range map[string]string{
		"alloc":   "shared heap exhausted",
		"allocpp": "process arena exhausted",
	} {
		src := `
shared double out;
void main() {
    double *a;
    a = ` + alloc + `(double, 1073741824 * 1073741824 * 4);
    a[1] = 7.0;
    out = a[1];
}
`
		err := runErr(t, src, 1)
		if err == nil || !contains(err.Error(), want) {
			t.Errorf("%s: want %q, got %v", alloc, want, err)
		}
	}
}

func TestPaddedHeapStrideLookup(t *testing.T) {
	// When a heap block is element-padded by directive, pointer
	// indexing must use the padded stride recorded at allocation.
	src := `
shared double *work;
shared double check;
void main() {
    if (pid == 0) {
        work = alloc(double, 8);
        for (int i = 0; i < 8; i = i + 1) {
            work[i] = i * 1.0;
        }
        check = work[5];
    }
}
`
	res, err := core.Restructure(src, core.Options{Nprocs: 2, BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Force the pad directive regardless of what the heuristics chose:
	// the VM consults it at the allocation site during code generation.
	res.Transformed.Dirs.PadHeapElem["work"] = 64
	m, _, _ := runProgram(t, res.Transformed, 2)
	if got := m.ReadDouble(res.Transformed.Layout.Var("check").Base); got != 5.0 {
		t.Errorf("check = %v, want 5.0", got)
	}
}
