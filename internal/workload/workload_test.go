package workload

import (
	"testing"

	"falseshare/internal/core"
	"falseshare/internal/sim/cache"
	"falseshare/internal/transform"
	"falseshare/internal/vm"
)

// measure runs a compiled program through the VM + cache simulator.
func measure(t *testing.T, prog *core.Program, nprocs int, block int64) *cache.Stats {
	t.Helper()
	bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, nprocs)
	if err != nil {
		t.Fatalf("vm compile: %v", err)
	}
	m := vm.New(bc)
	sim, err := cache.New(cache.DefaultConfig(nprocs, block))
	if err != nil {
		t.Fatalf("cache: %v", err)
	}
	if err := m.Run(func(r vm.Ref) {
		sim.Access(r.Proc, r.Addr, int64(r.Size), r.Write)
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	return sim.Stats()
}

// evaluate restructures a benchmark's base source and returns
// unoptimized and transformed stats at 12 procs / 128-byte blocks.
func evaluate(t *testing.T, b *Benchmark, scale int) (*core.Result, *cache.Stats, *cache.Stats) {
	t.Helper()
	const nprocs, block = 12, 128
	res, err := core.Restructure(b.Source(scale), core.Options{Nprocs: nprocs, BlockSize: block})
	if err != nil {
		t.Fatalf("%s: restructure: %v", b.Name, err)
	}
	sn := measure(t, res.Original, nprocs, block)
	sc := measure(t, res.Transformed, nprocs, block)
	return res, sn, sc
}

func appliedKinds(res *core.Result) map[transform.Kind]bool {
	m := map[transform.Kind]bool{}
	for _, d := range res.Applied {
		m[d.Kind] = true
	}
	return m
}

func fsReduction(sn, sc *cache.Stats) float64 {
	if sn.FalseShare == 0 {
		return 0
	}
	return 1 - float64(sc.FalseShare)/float64(sn.FalseShare)
}

func TestAllBenchmarksRegistered(t *testing.T) {
	names := []string{}
	for _, b := range All() {
		names = append(names, b.Name)
	}
	if len(All()) != 10 {
		t.Skipf("suite incomplete: %v", names)
	}
	if len(Unoptimizable()) != 6 {
		t.Errorf("unoptimizable set: %d, want 6", len(Unoptimizable()))
	}
}

func TestMaxflow(t *testing.T) {
	b := Get("maxflow")
	if b == nil {
		t.Skip("not registered")
	}
	res, sn, sc := evaluate(t, b, 1)

	ak := appliedKinds(res)
	if !ak[transform.KindPadAlign] || !ak[transform.KindLockPad] {
		t.Fatalf("maxflow wants pad&align + locks:\n%s", res.Plan)
	}
	if ak[transform.KindGroupTranspose] || ak[transform.KindIndirection] {
		t.Errorf("maxflow must not need G&T/indirection (Table 2):\n%s", res.Plan)
	}
	// The busy counters must be skipped by the profiling threshold.
	skippedBusy := false
	for _, s := range res.Plan.Skipped {
		if contains(s, "push_cnt") && contains(s, "below threshold") {
			skippedBusy = true
		}
	}
	if !skippedBusy {
		t.Errorf("push_cnt should fall below the profiling threshold:\n%s", res.Plan)
	}

	red := fsReduction(sn, sc)
	t.Logf("maxflow: FS %d -> %d (%.1f%% reduction), other %d -> %d, miss rate %.3f%% -> %.3f%%",
		sn.FalseShare, sc.FalseShare, 100*red,
		sn.Misses()-sn.FalseShare, sc.Misses()-sc.FalseShare,
		100*sn.MissRate(), 100*sc.MissRate())
	// Paper: 56.5% total reduction with sizable residual (busy scalars).
	if red < 0.30 || red > 0.85 {
		t.Errorf("maxflow FS reduction %.1f%%, want 30-85%% (paper: 56.5%%)", 100*red)
	}
	if sc.FalseShare == 0 {
		t.Errorf("maxflow must retain residual false sharing (busy scalars)")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != len(All()) {
		t.Fatalf("Names() has %d entries, All() has %d", len(names), len(All()))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
	for _, n := range names {
		if Get(n) == nil {
			t.Fatalf("Names() lists unknown benchmark %q", n)
		}
	}
	for _, want := range []string{"maxflow", "pverify", "water"} {
		if !containsString(names, want) {
			t.Fatalf("Names() missing %q: %v", want, names)
		}
	}
}

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func TestRegisterDuplicate(t *testing.T) {
	if err := Register(&Benchmark{Name: "maxflow"}); err == nil {
		t.Fatalf("Register of a duplicate name should error")
	}
	if err := Register(&Benchmark{}); err == nil {
		t.Fatalf("Register without a name should error")
	}
	if err := Register(&Benchmark{Name: "reg-test-tmp"}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	delete(registry, "reg-test-tmp")
	defer func() {
		if recover() == nil {
			t.Fatalf("MustRegister of a duplicate should panic")
		}
	}()
	MustRegister(&Benchmark{Name: "maxflow"})
}
