package vm_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"falseshare/internal/core"
	"falseshare/internal/experiments"
	"falseshare/internal/transform"
	"falseshare/internal/vm"
	"falseshare/internal/workload"
	"falseshare/internal/workload/gen"
)

// The tests in this file pin the machine to refMachine, the frozen
// pre-rewrite machine in oracle_test.go: on every program both must
// emit the same reference stream and agree on per-process counters,
// per-phase instruction counts, barriers, allocation spans, the final
// shared memory image and the error text.

// refStream folds a reference stream into a count and a hash, with
// one hash per chunk of chunkRefs references so a divergence can be
// located without keeping the stream. Refs with index in [keepFrom,
// keepTo) are kept verbatim.
type refStream struct {
	n                int
	sum, cur         uint64
	chunks           []uint64
	keepFrom, keepTo int
	kept             []vm.Ref
}

const chunkRefs = 4096

func (s *refStream) add(r vm.Ref) {
	if s.n >= s.keepFrom && s.n < s.keepTo {
		s.kept = append(s.kept, r)
	}
	for _, v := range [...]uint64{uint64(r.Proc), uint64(r.Addr), uint64(r.Size), b2u(r.Write)} {
		s.cur = (s.cur ^ v) * 1099511628211
	}
	s.n++
	if s.n%chunkRefs == 0 {
		s.chunks = append(s.chunks, s.cur)
		s.sum = s.sum*31 + s.cur
		s.cur = 14695981039346656037
	}
}

func (s *refStream) final() uint64 { return s.sum*31 + s.cur }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// outcome is everything one run computes that the machines must
// agree on.
type outcome struct {
	err                  string
	refs                 refStream
	instrs, nrefs, spins []int64
	phases               [][]int64 // per-process Instrs at each barrier release
	barriers             int64
	spans                []vm.Span
	mem                  []byte
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func runMachine(bc *vm.Program, budget int64, keepFrom, keepTo int) *outcome {
	o := &outcome{refs: refStream{cur: 14695981039346656037, keepFrom: keepFrom, keepTo: keepTo}}
	m := vm.New(bc)
	m.MaxInstrs = budget
	m.OnBarrier = func() {
		ph := make([]int64, len(m.Procs()))
		for i, p := range m.Procs() {
			ph[i] = p.Instrs
		}
		o.phases = append(o.phases, ph)
	}
	o.err = errText(m.Run(o.refs.add))
	for _, p := range m.Procs() {
		o.instrs = append(o.instrs, p.Instrs)
		o.nrefs = append(o.nrefs, p.Refs)
		o.spins = append(o.spins, p.Spins)
	}
	o.barriers, o.spans, o.mem = m.Barriers(), m.AllocSpans(), m.Mem()
	return o
}

func runOracle(bc *vm.Program, budget int64, keepFrom, keepTo int) *outcome {
	o := &outcome{refs: refStream{cur: 14695981039346656037, keepFrom: keepFrom, keepTo: keepTo}}
	m := vm.NewRefMachine(bc)
	m.MaxInstrs = budget
	m.OnBarrier = func() {
		ph := make([]int64, len(m.Procs()))
		for i, p := range m.Procs() {
			ph[i] = p.Instrs
		}
		o.phases = append(o.phases, ph)
	}
	o.err = errText(m.Run(o.refs.add))
	for _, p := range m.Procs() {
		o.instrs = append(o.instrs, p.Instrs)
		o.nrefs = append(o.nrefs, p.Refs)
		o.spins = append(o.spins, p.Spins)
	}
	o.barriers, o.spans, o.mem = m.Barriers(), m.AllocSpans(), m.Mem()
	return o
}

// diffOracle runs bc on both machines with the given step budget (0:
// the default) and returns the first disagreement, or "".
func diffOracle(bc *vm.Program, budget int64) string {
	return diff(bc, budget, runMachine(bc, budget, 0, 0), runOracle(bc, budget, 0, 0))
}

func diff(bc *vm.Program, budget int64, got, want *outcome) string {
	switch {
	case got.err != want.err:
		return fmt.Sprintf("error:\n got  %q\n want %q", got.err, want.err)
	case got.refs.n != want.refs.n || got.refs.final() != want.refs.final():
		return firstRefDiff(bc, budget, got, want)
	case fmt.Sprint(got.instrs) != fmt.Sprint(want.instrs):
		return fmt.Sprintf("Instrs: got %v want %v", got.instrs, want.instrs)
	case fmt.Sprint(got.nrefs) != fmt.Sprint(want.nrefs):
		return fmt.Sprintf("Refs: got %v want %v", got.nrefs, want.nrefs)
	case fmt.Sprint(got.spins) != fmt.Sprint(want.spins):
		return fmt.Sprintf("Spins: got %v want %v", got.spins, want.spins)
	case got.barriers != want.barriers:
		return fmt.Sprintf("Barriers: got %d want %d", got.barriers, want.barriers)
	case fmt.Sprint(got.phases) != fmt.Sprint(want.phases):
		return fmt.Sprintf("per-phase Instrs differ:\n got  %v\n want %v", got.phases, want.phases)
	case fmt.Sprint(got.spans) != fmt.Sprint(want.spans):
		return fmt.Sprintf("AllocSpans: got %v want %v", got.spans, want.spans)
	case len(got.mem) != len(want.mem):
		return fmt.Sprintf("Mem size: got %d want %d", len(got.mem), len(want.mem))
	case !bytes.Equal(got.mem, want.mem):
		for i := range got.mem {
			if got.mem[i] != want.mem[i] {
				return fmt.Sprintf("Mem differs first at %#x: got %#x want %#x", i, got.mem[i], want.mem[i])
			}
		}
	}
	return ""
}

// firstRefDiff locates the first differing chunk of the two streams
// and reruns both machines keeping it, to name the first differing
// reference.
func firstRefDiff(bc *vm.Program, budget int64, got, want *outcome) string {
	c := 0
	for c < len(got.refs.chunks) && c < len(want.refs.chunks) && got.refs.chunks[c] == want.refs.chunks[c] {
		c++
	}
	from, to := c*chunkRefs, (c+1)*chunkRefs
	g := runMachine(bc, budget, from, to).refs.kept
	w := runOracle(bc, budget, from, to).refs.kept
	for i := 0; i < len(g) || i < len(w); i++ {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			var gr, wr any = "end of stream", "end of stream"
			if i < len(g) {
				gr = g[i]
			}
			if i < len(w) {
				wr = w[i]
			}
			return fmt.Sprintf("ref streams differ at ref %d (of %d vs %d): got %+v want %+v",
				from+i, got.refs.n, want.refs.n, gr, wr)
		}
	}
	return fmt.Sprintf("ref stream hashes differ (%d vs %d refs)", got.refs.n, want.refs.n)
}

func checkOracle(t *testing.T, bc *vm.Program, budget int64) {
	t.Helper()
	if d := diffOracle(bc, budget); d != "" {
		t.Fatal(d)
	}
}

func bytecode(t testing.TB, prog *core.Program) *vm.Program {
	t.Helper()
	bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, int(prog.Layout.Nprocs))
	if err != nil {
		t.Fatalf("vm compile: %v", err)
	}
	return bc
}

// TestOracleWorkloads: every version of every kernel at 1, 4 and 12
// processors.
func TestOracleWorkloads(t *testing.T) {
	procs := []int{1, 4, 12}
	if testing.Short() {
		procs = []int{4}
	}
	for _, b := range workload.All() {
		for _, ver := range experiments.Versions(b) {
			for _, p := range procs {
				t.Run(fmt.Sprintf("%s/%s/p%d", b.Name, ver, p), func(t *testing.T) {
					t.Parallel()
					prog, err := experiments.ProgramCtx(context.Background(), b, ver, p, 1, 128, transform.Config{})
					if err != nil {
						t.Fatal(err)
					}
					checkOracle(t, bytecode(t, prog), 0)
				})
			}
		}
	}
}

// TestOracleGenCorpus: the generated matrix population, original and
// restructured.
func TestOracleGenCorpus(t *testing.T) {
	n := 24
	if testing.Short() {
		n = 8
	}
	for _, params := range gen.Corpus(n, 1) {
		t.Run(params.Name(), func(t *testing.T) {
			t.Parallel()
			res, err := core.Restructure(gen.Generate(params), core.Options{Nprocs: 8, BlockSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			checkOracle(t, bytecode(t, res.Original), 0)
			checkOracle(t, bytecode(t, res.Transformed), 0)
		})
	}
}

// FuzzVMOracle runs every program the restructurer accepts, original
// and transformed, through both machines. The step budget keeps an
// execution short enough to fuzz: a program still running after 200k
// instructions per process stops with the budget error, which must
// match too. TestOracleWorkloads runs the kernels to completion.
func FuzzVMOracle(f *testing.F) {
	for _, src := range gen.FuzzSeeds() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		res, err := core.Restructure(src, core.Options{Nprocs: 4, BlockSize: 64})
		if err != nil {
			return // rejected input; FuzzCompile owns pipeline crashes
		}
		for _, prog := range []*core.Program{res.Original, res.Transformed} {
			bc := bytecode(t, prog)
			// The oracle allocates its whole address space up front;
			// a mutation that declares a huge array is not worth that.
			if bc.SharedEnd+int64(bc.Nprocs)*bc.PrivSize > 64<<20 {
				return
			}
			checkOracle(t, bc, 200_000)
		}
	})
}

func compileSrc(t *testing.T, src string, nprocs int) *vm.Program {
	t.Helper()
	prog, err := core.CompileCtx(context.Background(), src, core.Options{Nprocs: nprocs, BlockSize: 64})
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	return bytecode(t, prog)
}

// indexedLoop is dominated by the array subscript sequences
// ([check d] push s; muli; addi) the machine fuses.
const indexedLoop = `
shared int a[8][16];
shared double d[64];
void main() {
    int loc[32];
    for (int i = 0; i < 40; i = i + 1) {
        loc[i % 32] = loc[(i + 1) % 32] + i;
        a[pid][i % 16] = a[pid][(i + 3) % 16] + loc[i % 32];
        d[(i * 7) % 64] = d[i % 64] + 1.5;
    }
}
`

// TestOracleBudgetInsideFusedSequence: with the step budget running
// out at every instruction of the first few iterations, the budget
// error must name the same count and pc, including budgets that run
// out in the middle of a fused subscript sequence.
func TestOracleBudgetInsideFusedSequence(t *testing.T) {
	bc := compileSrc(t, indexedLoop, 3)
	code := bc.Funcs[bc.Main].Code
	inside := 0
	for budget := int64(1); budget <= 400; budget++ {
		want := runOracle(bc, budget, 0, 0)
		if d := diff(bc, budget, runMachine(bc, budget, 0, 0), want); d != "" {
			t.Fatalf("budget %d: %s", budget, d)
		}
		var pc int
		if i := strings.Index(want.err, "at pc="); i >= 0 {
			fmt.Sscanf(want.err[i:], "at pc=%d", &pc)
		}
		if op := code[pc].Op; pc > 0 && (op == vm.OpMulI || op == vm.OpAddI) && (code[pc-1].Op == vm.OpPush || code[pc-2].Op == vm.OpPush) {
			inside++
		}
	}
	if inside == 0 {
		t.Fatal("no budget ran out inside a subscript sequence; the test no longer covers fusion")
	}
}

// TestOracleSliceInsideFusedSequence: a process computing privately
// yields every 20000 instructions. Shifting the private loop by one
// instruction at a time moves that boundary through every position of
// its subscript sequences; the interleaving with the other processes'
// shared references must not change.
func TestOracleSliceInsideFusedSequence(t *testing.T) {
	for shift := 2; shift < 18; shift++ {
		// j = j; is two instructions and j = -j; three, so together
		// they shift the loop by any amount from two up.
		pad := strings.Repeat("    j = j;\n", shift/2)
		if shift%2 == 1 {
			pad = strings.Repeat("    j = j;\n", (shift-3)/2) + "    j = -j;\n"
		}
		src := `
shared int out[16];
void main() {
    int loc[16];
    int j;
    j = 1;
    out[pid] = 1;
` + pad + `
    for (int i = 0; i < 6000 + pid * 7; i = i + 1) {
        loc[i % 16] = loc[(i + 5) % 16] + i * j;
        if (i % 1500 == 0) {
            out[pid] = out[pid] + loc[i % 16];
        }
    }
    out[pid + 8] = loc[3];
}
`
		if d := diffOracle(compileSrc(t, src, 3), 0); d != "" {
			t.Fatalf("shift %d: %s", shift, d)
		}
	}
}

// TestOracleDirected: runtime errors, locks, recursion and allocation
// through compiled source.
func TestOracleDirected(t *testing.T) {
	cases := []struct {
		name, src string
		nprocs    int
	}{
		{"index-out-of-range", `
shared int a[4];
void main() { for (int i = 0; i < 8; i = i + 1) { a[i] = i; } }`, 2},
		{"negative-index", `
shared int a[4][4];
void main() { a[1][0 - pid] = 1; }`, 2},
		{"null-dereference", `
struct S { int v; };
shared struct S *p;
shared int x;
void main() { x = pid; p->v = 1; }`, 3},
		{"null-index", `
shared int *p;
void main() { p[2] = 1; }`, 1},
		{"division-by-zero", `
shared int x;
void main() { x = 10 / (pid - 1); }`, 3},
		{"lock-spinning", `
shared int got[16];
shared int total;
lock l;
void main() {
    for (int i = 0; i < 30; i = i + 1) {
        acquire(l);
        got[pid] = got[pid] + 1;
        total = total + got[pid];
        release(l);
    }
}`, 8},
		{"recursion-with-local-arrays", `
shared int out[4];
int depth(int n) {
    int local[4];
    local[n % 4] = n;
    if (n == 0) { return 0; }
    return local[n % 4] + depth(n - 1);
}
void main() { out[pid] = depth(60 + pid); }`, 4},
		{"allocation", `
struct Node { int v; double w; struct Node *next; };
shared struct Node *head[8];
shared double *work;
shared int sum;
void main() {
    struct Node *n;
    int *mine;
    mine = allocpp(int, 16);
    for (int i = 0; i < 5; i = i + 1) {
        n = alloc(struct Node);
        n->v = pid * 10 + i;
        n->w = n->v * 0.5;
        n->next = head[pid];
        head[pid] = n;
        mine[i] = n->v;
    }
    if (pid == 0) { work = alloc(double, 32); }
    barrier;
    acquire(l2);
    for (n = head[pid]; n != 0; n = n->next) { sum = sum + n->v + mine[1]; work[pid] = work[pid] + n->w; }
    release(l2);
}
lock l2;`, 4},
		{"negative-arena-count", `
void main() { int *a; a = allocpp(int, 4); a = allocpp(int, pid - 2); a[0] = 1; }`, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := core.CompileCtx(context.Background(), tc.src, core.Options{Nprocs: tc.nprocs, BlockSize: 64})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			checkOracle(t, bytecode(t, prog), 0)
		})
	}
}

// asm assembles a one-function program over a small address space:
// shared [0, 0x4000) with the heap at 0x2000 and one 0x800-byte arena
// per process from 0x3000, and 0x3000 bytes of private space.
func asm(nprocs int, code ...vm.Instr) *vm.Program {
	for i := range code {
		code[i].Line = i + 1
	}
	return &vm.Program{
		Funcs:     []*vm.Func{{Name: "main", NLocals: 2, Code: code}},
		FuncID:    map[string]int{"main": 0},
		SharedEnd: 0x4000,
		HeapBase:  0x2000,
		ArenaBase: 0x3000,
		ArenaSize: 0x1000 / int64(nprocs),
		PrivSize:  0x3000,
		Nprocs:    nprocs,
	}
}

func op(o vm.Op, a int64) vm.Instr { return vm.Instr{Op: o, A: a} }

// TestOracleAssembled: memory edge cases no compiled program reaches.
func TestOracleAssembled(t *testing.T) {
	const v = 0x1122334455667788
	priv := func(off int64) int64 { return vm.PrivTag | off }
	cases := map[string]*vm.Program{
		"unaligned-across-page": asm(2,
			op(vm.OpPush, v), op(vm.OpPush, 0x2000-4), op(vm.OpStore8, 0),
			op(vm.OpPush, 0x2000-4), op(vm.OpLoad8, 0), op(vm.OpPush, 0x3000-3), op(vm.OpStore8, 0),
			op(vm.OpPush, 0x2000-2), op(vm.OpLoad4, 0), op(vm.OpPush, 0x1800), op(vm.OpStore4, 0),
			op(vm.OpPush, 0x1000-1), op(vm.OpLoad8, 0), op(vm.OpPush, 0x1808), op(vm.OpStore8, 0),
			op(vm.OpHalt, 0)),
		"private-unaligned-across-page": asm(2,
			op(vm.OpPushPid, 0), op(vm.OpPush, priv(0x1000-4)), op(vm.OpStore8, 0),
			op(vm.OpPush, v), op(vm.OpPush, priv(0x2000-2)), op(vm.OpStore4, 0),
			op(vm.OpPush, priv(0x1000-4)), op(vm.OpLoad8, 0), op(vm.OpPush, priv(0x2000-2)), op(vm.OpLoad4, 0),
			op(vm.OpAddI, 0), op(vm.OpPushPid, 0), op(vm.OpPush, 8), op(vm.OpMulI, 0), op(vm.OpPush, 0x1800), op(vm.OpAddI, 0),
			op(vm.OpStore8, 0), op(vm.OpHalt, 0)),
		"private-out-of-range": asm(1,
			op(vm.OpPush, priv(0x3000-4)), op(vm.OpLoad4, 0), op(vm.OpPop, 0),
			op(vm.OpPush, priv(0x3000-4)), op(vm.OpLoad8, 0), op(vm.OpHalt, 0)),
		"private-negative-offset": asm(1,
			op(vm.OpPush, 1), op(vm.OpPush, -8), op(vm.OpStore4, 0), op(vm.OpHalt, 0)),
		"shared-out-of-range": asm(1,
			op(vm.OpPush, 1), op(vm.OpPush, 0x4000-4), op(vm.OpStore4, 0),
			op(vm.OpPush, 0x4000-4), op(vm.OpLoad8, 0), op(vm.OpHalt, 0)),
		"null-page":    asm(1, op(vm.OpPush, 0x10), op(vm.OpLoad4, 0), op(vm.OpHalt, 0)),
		"invalid-lock": asm(1, op(vm.OpPush, 0x4000-2), op(vm.OpLockAcq, 0), op(vm.OpHalt, 0)),
		"fell-off-end": asm(1, op(vm.OpPush, 1), op(vm.OpPop, 0)),
		"bad-opcode":   asm(1, op(vm.OpNop, 0), op(vm.Op(200), 0)),
		"alloc-exhausted": asm(2,
			op(vm.OpPush, 0x100), vm.Instr{Op: vm.OpAllocHeap, A: 16, B: 1}, op(vm.OpPop, 0),
			op(vm.OpPush, 0x80), vm.Instr{Op: vm.OpAllocArena, A: 8, B: 1}, op(vm.OpPop, 0),
			op(vm.OpPush, 0x80), vm.Instr{Op: vm.OpAllocArena, A: 8, B: 1}, op(vm.OpPop, 0),
			vm.Instr{Op: vm.OpAllocArena, A: 8}, op(vm.OpHalt, 0)),
	}
	for name, bc := range cases {
		t.Run(name, func(t *testing.T) {
			checkOracle(t, bc, 0)
		})
	}
}
