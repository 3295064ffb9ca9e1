package workload

import (
	"context"
	"testing"

	"falseshare/internal/core"
	"falseshare/internal/transform"
)

func TestPverify(t *testing.T) {
	b := Get("pverify")
	res, sn, sc := evaluate(t, b, 1)

	ak := appliedKinds(res)
	if !ak[transform.KindIndirection] {
		t.Fatalf("pverify wants indirection:\n%s", res.Plan)
	}
	if !ak[transform.KindGroupTranspose] {
		t.Errorf("pverify wants group&transpose on done/steps:\n%s", res.Plan)
	}
	if !ak[transform.KindLockPad] {
		t.Errorf("pverify wants lock padding:\n%s", res.Plan)
	}

	red := fsReduction(sn, sc)
	t.Logf("pverify: FS %d -> %d (%.1f%% reduction), miss rate %.3f%% -> %.3f%%",
		sn.FalseShare, sc.FalseShare, 100*red, 100*sn.MissRate(), 100*sc.MissRate())
	// Paper: 91.2% total reduction, indirection-dominated.
	if red < 0.75 {
		t.Errorf("pverify FS reduction %.1f%%, want >= 75%% (paper: 91.2%%)", 100*red)
	}

	// The programmer version must land between N and C on false
	// sharing (padding helps but misses the real fixes).
	const nprocs, block = 12, 128
	pprog, err := core.CompileCtx(context.Background(), b.ProgrammerSource(1), core.Options{Nprocs: nprocs, BlockSize: block})
	if err != nil {
		t.Fatalf("P compile: %v", err)
	}
	sp := measure(t, pprog, nprocs, block)
	t.Logf("pverify P: FS %d, miss rate %.3f%%", sp.FalseShare, 100*sp.MissRate())
	if sp.FalseShare >= sn.FalseShare {
		t.Errorf("P version should reduce FS vs N: %d vs %d", sp.FalseShare, sn.FalseShare)
	}
	if sp.FalseShare <= sc.FalseShare {
		t.Errorf("compiler should beat programmer on FS: C=%d P=%d", sc.FalseShare, sp.FalseShare)
	}
}
