package ksr

import (
	"context"
	"fmt"
	"testing"

	"falseshare/internal/core"
)

// falselySharedSource builds a kernel whose per-process counters share
// cache blocks (heavy false sharing) unless padded.
const falselySharedSource = `
shared int counter[64];
void main() {
    int rounds;
    rounds = 4800 / nprocs;
    for (int i = 0; i < rounds; i = i + 1) {
        counter[pid] = counter[pid] + 1;
    }
}
`

func compileAt(t *testing.T, src string, transformed bool) func(p int) (*core.Program, error) {
	t.Helper()
	return func(p int) (*core.Program, error) {
		if !transformed {
			return core.CompileCtx(context.Background(), src, core.Options{Nprocs: p, BlockSize: 128})
		}
		res, err := core.Restructure(src, core.Options{Nprocs: p, BlockSize: 128})
		if err != nil {
			return nil, err
		}
		return res.Transformed, nil
	}
}

func TestExecuteBasic(t *testing.T) {
	prog, err := core.CompileCtx(context.Background(), falselySharedSource, core.Options{Nprocs: 4, BlockSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	r, err := ExecuteCtx(context.Background(), prog, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 || r.Instrs <= 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	if r.Stats.FalseShare == 0 {
		t.Fatalf("expected false sharing in unpadded counters")
	}
}

func TestTransformedRunsFasterUnderContention(t *testing.T) {
	cfg := DefaultConfig()
	const p = 8
	orig, err := compileAt(t, falselySharedSource, false)(p)
	if err != nil {
		t.Fatal(err)
	}
	trans, err := compileAt(t, falselySharedSource, true)(p)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := ExecuteCtx(context.Background(), orig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := ExecuteCtx(context.Background(), trans, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Stats.FalseShare >= ro.Stats.FalseShare/10 {
		t.Errorf("transformation left false sharing: %d vs %d", rt.Stats.FalseShare, ro.Stats.FalseShare)
	}
	if rt.Cycles >= ro.Cycles {
		t.Errorf("transformed not faster: %.0f vs %.0f cycles", rt.Cycles, ro.Cycles)
	}
}

func TestScalabilityReversalAndRecovery(t *testing.T) {
	// The paper's headline effect: the unoptimized program's speedup
	// reverses as contention grows; the transformed version keeps
	// scaling and reaches a higher maximum.
	cfg := DefaultConfig()
	counts := []int{1, 2, 4, 8, 16}

	execute := func(p int, transformed bool) *Result {
		prog, err := compileAt(t, falselySharedSource, transformed)(p)
		if err != nil {
			t.Fatal(err)
		}
		r, err := ExecuteCtx(context.Background(), prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	runCurve := func(transformed bool) []float64 {
		var rs []*Result
		for _, p := range counts {
			rs = append(rs, execute(p, transformed))
		}
		// Base: uniprocessor run of the unoptimized version.
		return SpeedupCurve(rs, execute(1, false).Cycles)
	}

	orig := runCurve(false)
	trans := runCurve(true)

	maxO, atO := MaxSpeedup(counts, orig)
	maxT, atT := MaxSpeedup(counts, trans)
	if maxT <= maxO {
		t.Errorf("transformed max speedup %.2f (at %d) not above original %.2f (at %d)\norig: %v\ntrans: %v",
			maxT, atT, maxO, atO, orig, trans)
	}
	if atT < atO {
		t.Errorf("transformed should scale to at least as many processors: %d vs %d", atT, atO)
	}
	// The unoptimized curve must flatten or reverse before the top end.
	if orig[len(orig)-1] >= float64(counts[len(counts)-1])*0.8 {
		t.Errorf("unoptimized program scales suspiciously well: %v", orig)
	}
}

func TestPhaseAccounting(t *testing.T) {
	src := `
shared int a[256];
void main() {
    for (int i = 0; i < 100; i = i + 1) { a[pid] = a[pid] + 1; }
    barrier;
    for (int i = 0; i < 100; i = i + 1) { a[pid + 32] = a[pid + 32] + 1; }
}
`
	prog, err := core.CompileCtx(context.Background(), src, core.Options{Nprocs: 4, BlockSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	r, err := ExecuteCtx(context.Background(), prog, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Phases != 2 {
		t.Fatalf("phases = %d, want 2", r.Phases)
	}
}

func ExampleSpeedupCurve() {
	rs := []*Result{{Cycles: 100}, {Cycles: 50}, {Cycles: 25}}
	fmt.Println(SpeedupCurve(rs, 100))
	// Output: [1 2 4]
}
