package sideeffect

import (
	"testing"

	"falseshare/internal/analysis/nonconc"
	"falseshare/internal/analysis/pdv"
	"falseshare/internal/analysis/procs"
	"falseshare/internal/cfg"
	"falseshare/internal/lang/parser"
	"falseshare/internal/lang/types"
)

// pipeline runs the full front end + analysis stages over src.
func pipeline(t *testing.T, src string, nprocs int) (*types.Info, *Summary) {
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
	pr := procs.Analyze(prog, info, pdvs, nprocs)
	ph, err := nonconc.Analyze(prog)
	if err != nil {
		t.Fatalf("nonconc: %v", err)
	}
	sum := Analyze(info, prog, pdvs, pr, ph, Config{Nprocs: nprocs, StaticProfiling: true})
	return info, sum
}

func TestBlockCyclicPartitionIsPerProcess(t *testing.T) {
	// The canonical cyclic partition: a[pid + i*nprocs]. Writes by
	// different processes hit disjoint (congruence-separated) sets.
	src := `
shared int a[256];
void main() {
    for (int i = 0; pid + i * nprocs < 256; i = i + 1) {
        a[pid + i * nprocs] = 1;
    }
}
`
	// Rewrite with a bounded loop for the analysis.
	src = `
shared int a[256];
void main() {
    int n;
    n = 256 / nprocs;
    for (int i = 0; i < n; i = i + 1) {
        a[pid + i * nprocs] = 1;
    }
}
`
	_, sum := pipeline(t, src, 4)
	os := sum.Objects["global:a"]
	if os == nil {
		t.Fatalf("no summary for a:\n%s", sum)
	}
	if len(os.Writes) != 1 {
		t.Fatalf("writes: %+v", os.Writes)
	}
	r := os.Writes[0].R
	if !r.PairwiseDisjoint(4) {
		t.Errorf("cyclic partition not proven disjoint: %s", r)
	}
	if r.PidDim() < 0 {
		t.Errorf("descriptor should depend on pid: %s", r)
	}
}

func TestBlockPartitionIsPerProcess(t *testing.T) {
	src := `
shared double a[240];
void main() {
    int chunk;
    int lo;
    chunk = 240 / nprocs;
    lo = pid * chunk;
    for (int i = lo; i < lo + chunk; i = i + 1) {
        a[i] = a[i] + 1.0;
    }
}
`
	_, sum := pipeline(t, src, 12)
	os := sum.Objects["global:a"]
	if os == nil {
		t.Fatalf("no summary for a")
	}
	if len(os.Writes) != 1 {
		t.Fatalf("writes: %v", os.Writes)
	}
	r := os.Writes[0].R
	if !r.PairwiseDisjoint(12) {
		t.Errorf("block partition not proven disjoint: %s", r)
	}
	if !r.InnerUnitStride() {
		t.Errorf("block partition should be unit stride: %s", r)
	}
	// Reads also occur (a[i] on the RHS).
	if os.ReadW <= 0 {
		t.Errorf("expected read weight, got %f", os.ReadW)
	}
}

func TestPidColumnAccess2D(t *testing.T) {
	// w[i][pid]: adjacent elements in a row belong to different
	// processes — the group & transpose target shape.
	src := `
shared int w[128][16];
void main() {
    for (int i = 0; i < 128; i = i + 1) {
        w[i][pid] = w[i][pid] + 1;
    }
}
`
	_, sum := pipeline(t, src, 12)
	os := sum.Objects["global:w"]
	if os == nil {
		t.Fatalf("no summary for w")
	}
	r := os.Writes[0].R
	if len(r) != 2 {
		t.Fatalf("descriptor rank = %d, want 2: %s", len(r), r)
	}
	if got := r.PidDim(); got != 1 {
		t.Errorf("pid dimension = %d, want 1 (%s)", got, r)
	}
	if !r.PairwiseDisjoint(12) {
		t.Errorf("column partition not disjoint: %s", r)
	}
}

func TestSharedScalarWrites(t *testing.T) {
	src := `
shared int counter;
lock l;
void main() {
    for (int i = 0; i < 100; i = i + 1) {
        acquire(l);
        counter = counter + 1;
        release(l);
    }
}
`
	_, sum := pipeline(t, src, 8)
	os := sum.Objects["global:counter"]
	if os == nil {
		t.Fatalf("no summary for counter")
	}
	if os.WriteProcs.Count() != 8 {
		t.Errorf("counter written by %s, want all 8", os.WriteProcs)
	}
	lk := sum.Objects["global:l"]
	if lk == nil || !lk.Obj.IsLock() {
		t.Fatalf("lock object missing or misclassified: %+v", lk)
	}
	if lk.WriteW <= 0 {
		t.Errorf("lock should have write weight")
	}
}

func TestPerProcessBranchRestrictsProcs(t *testing.T) {
	src := `
shared int flag;
shared int a[64];
void init() {
    for (int i = 0; i < 64; i = i + 1) {
        a[i] = 0;
    }
}
void main() {
    if (pid == 0) {
        init();
        flag = 1;
    }
    barrier;
    a[pid] = a[pid] + 1;
}
`
	_, sum := pipeline(t, src, 8)
	os := sum.Objects["global:flag"]
	if os == nil {
		t.Fatalf("no summary for flag")
	}
	if os.WriteProcs.Count() != 1 || !os.WriteProcs.Has(0) {
		t.Errorf("flag written by %s, want {0}", os.WriteProcs)
	}
	// The init() callee's stores should also be attributed to proc 0.
	ao := sum.Objects["global:a"]
	if ao == nil {
		t.Fatalf("no summary for a")
	}
	// a is written both by init (proc 0) and by everyone after the
	// barrier, so the union is all.
	if ao.WriteProcs.Count() != 8 {
		t.Errorf("a written by %s", ao.WriteProcs)
	}
	// But there must exist an access restricted to {0}.
	found := false
	for _, acc := range ao.Accesses {
		if acc.Write && acc.Procs.Count() == 1 && acc.Procs.Has(0) {
			found = true
		}
	}
	if !found {
		t.Errorf("no write access attributed to proc 0 only")
	}
}

func TestPhasesSplitAtBarriers(t *testing.T) {
	src := `
shared int a[64];
shared int b[64];
void main() {
    a[pid] = 1;
    barrier;
    b[pid] = a[pid];
}
`
	_, sum := pipeline(t, src, 4)
	ao := sum.Objects["global:a"]
	bo := sum.Objects["global:b"]
	if ao == nil || bo == nil {
		t.Fatalf("missing summaries")
	}
	// a is written in phase 0, b in phase 1.
	if ao.PhaseWeight[0] <= 0 {
		t.Errorf("a phase weights: %v", ao.PhaseWeight)
	}
	if bo.PhaseWeight[1] <= 0 {
		t.Errorf("b phase weights: %v", bo.PhaseWeight)
	}
}

func TestFieldProvenancePerProcess(t *testing.T) {
	// The Pverify shape: per-process lists hung off a PDV-indexed
	// array of heads; the count field is per-process data embedded in
	// dynamic structures — the indirection target.
	src := `
struct Node {
    int count;
    struct Node *next;
};
shared struct Node *heads[16];
void main() {
    struct Node *p;
    struct Node *n;
    n = alloc(struct Node);
    n->next = 0;
    heads[pid] = n;
    barrier;
    for (int i = 0; i < 100; i = i + 1) {
        p = heads[pid];
        while (p != 0) {
            p->count = p->count + 1;
            p = p->next;
        }
    }
}
`
	_, sum := pipeline(t, src, 8)
	co := sum.Objects["field:Node.count"]
	if co == nil {
		t.Fatalf("no summary for Node.count:\n%s", sum)
	}
	if co.WriteProv != ProvPerProcess {
		t.Errorf("Node.count write provenance = %s, want per-process", co.WriteProv)
	}
	if co.WriteW <= 0 || co.ReadW <= 0 {
		t.Errorf("count weights: r=%f w=%f", co.ReadW, co.WriteW)
	}
}

func TestFieldProvenanceShared(t *testing.T) {
	// A single shared list traversed by everyone: fields stay shared.
	src := `
struct Node {
    int count;
    struct Node *next;
};
shared struct Node *head;
void main() {
    struct Node *p;
    p = head;
    while (p != 0) {
        p->count = p->count + 1;
        p = p->next;
    }
}
`
	_, sum := pipeline(t, src, 8)
	co := sum.Objects["field:Node.count"]
	if co == nil {
		t.Fatalf("no summary for Node.count")
	}
	if co.WriteProv != ProvShared {
		t.Errorf("Node.count write provenance = %s, want shared", co.WriteProv)
	}
}

func TestUnknownBaseKeepsStride(t *testing.T) {
	// The Topopt shape: a revolving partition whose base comes from
	// shared memory — per-process undetectable, but unit stride.
	src := `
shared int part[256];
shared int base;
void main() {
    int b;
    b = base;
    for (int i = 0; i < 32; i = i + 1) {
        part[b + i] = 1;
    }
}
`
	_, sum := pipeline(t, src, 8)
	po := sum.Objects["global:part"]
	if po == nil {
		t.Fatalf("no summary for part")
	}
	r := po.Writes[0].R
	if len(r) != 1 {
		t.Fatalf("rank: %s", r)
	}
	if r[0].Known {
		t.Errorf("base should be unknown: %s", r)
	}
	if !r[0].UnitStride() {
		t.Errorf("stride should be unit: %s", r)
	}
	if r.PairwiseDisjoint(8) {
		t.Errorf("unknown base must not be proven disjoint")
	}
}

func TestStaticProfilingWeights(t *testing.T) {
	src := `
shared int hot;
shared int cold;
void main() {
    for (int i = 0; i < 1000; i = i + 1) {
        hot = hot + 1;
        if (hot > 999) {
            if (hot > 1000) {
                cold = cold + 1;
            }
        }
    }
}
`
	_, sum := pipeline(t, src, 4)
	hot := sum.Objects["global:hot"]
	cold := sum.Objects["global:cold"]
	if hot == nil || cold == nil {
		t.Fatalf("missing summaries")
	}
	if hot.WriteW <= cold.WriteW*2 {
		t.Errorf("static profiling should weight hot >> cold: hot=%f cold=%f", hot.WriteW, cold.WriteW)
	}
}

func TestProfilingAblation(t *testing.T) {
	src := `
shared int x;
void main() {
    for (int i = 0; i < 1000; i = i + 1) {
        x = x + 1;
    }
}
`
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := types.Check(f)
	if err != nil {
		t.Fatal(err)
	}
	prog := cfg.BuildProgram(f)
	pdvs := pdv.Analyze(info, 4)
	pr := procs.Analyze(prog, info, pdvs, 4)
	ph, err := nonconc.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	cfgOff := Config{Nprocs: 4, StaticProfiling: false}
	sum := Analyze(info, prog, pdvs, pr, ph, cfgOff)
	xo := sum.Objects["global:x"]
	if xo.WriteW != 1 {
		t.Errorf("profiling off: write weight = %f, want 1", xo.WriteW)
	}
}

func TestHeapViaGlobalPointer(t *testing.T) {
	src := `
shared double *work;
void main() {
    if (pid == 0) {
        work = alloc(double, 120);
    }
    barrier;
    int chunk;
    int lo;
    chunk = 120 / nprocs;
    lo = pid * chunk;
    for (int i = lo; i < lo + chunk; i = i + 1) {
        work[i] = 1.0;
    }
}
`
	_, sum := pipeline(t, src, 12)
	wo := sum.Objects["heap-via:*work"]
	if wo == nil {
		t.Fatalf("no summary for *work:\n%s", sum)
	}
	if !wo.Writes[0].R.PairwiseDisjoint(12) {
		t.Errorf("heap block partition not disjoint: %s", wo.Writes[0].R)
	}
	// Loading the pointer itself must register reads of the global.
	g := sum.Objects["global:work"]
	if g == nil || g.ReadW <= 0 {
		t.Errorf("pointer loads not recorded")
	}
}
