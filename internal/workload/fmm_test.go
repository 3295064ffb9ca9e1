package workload

import (
	"context"
	"testing"

	"falseshare/internal/core"
	"falseshare/internal/transform"
)

func TestFmm(t *testing.T) {
	b := Get("fmm")
	res, sn, sc := evaluate(t, b, 1)

	ak := appliedKinds(res)
	if !ak[transform.KindGroupTranspose] || !ak[transform.KindLockPad] {
		t.Fatalf("fmm wants G&T + locks:\n%s", res.Plan)
	}
	// The force vectors must all land in one grouped record.
	grouped := false
	for _, d := range res.Plan.ByKind(transform.KindGroupTranspose) {
		if d.Shape == transform.ShapeGroup && len(d.Arrays) == 4 {
			grouped = true
		}
	}
	if !grouped {
		t.Errorf("fx/fy/fz/inter not grouped together:\n%s", res.Plan)
	}
	// Positions stay untouched (read-shared with locality).
	for _, d := range res.Applied {
		for _, obj := range d.Objects {
			if obj == "global:px" || obj == "global:py" {
				t.Errorf("read-only positions must not be transformed: %s", d)
			}
		}
	}

	red := fsReduction(sn, sc)
	t.Logf("fmm: FS %d -> %d (%.1f%% reduction), miss rate %.3f%% -> %.3f%%",
		sn.FalseShare, sc.FalseShare, 100*red, 100*sn.MissRate(), 100*sc.MissRate())
	if red < 0.80 {
		t.Errorf("fmm FS reduction %.1f%%, want >= 80%% (paper: 90.8%%)", 100*red)
	}

	// The under-padded programmer version must keep most of its false
	// sharing at 128-byte blocks (the paper's P == N story).
	pprog, err := core.CompileCtx(context.Background(), b.ProgrammerSource(1), core.Options{Nprocs: 12, BlockSize: 128})
	if err != nil {
		t.Fatalf("P compile: %v", err)
	}
	sp := measure(t, pprog, 12, 128)
	t.Logf("fmm P: FS %d, miss rate %.3f%%", sp.FalseShare, 100*sp.MissRate())
	if sp.FalseShare < sn.FalseShare/4 {
		t.Errorf("32-byte-padded P should retain much false sharing at 128B blocks: P=%d N=%d",
			sp.FalseShare, sn.FalseShare)
	}
}

func TestRadiosity(t *testing.T) {
	b := Get("radiosity")
	res, sn, sc := evaluate(t, b, 1)

	ak := appliedKinds(res)
	if !ak[transform.KindGroupTranspose] || !ak[transform.KindLockPad] {
		t.Fatalf("radiosity wants G&T + locks:\n%s", res.Plan)
	}
	if !ak[transform.KindPadAlign] {
		t.Errorf("radiosity wants pad&align on done_flag:\n%s", res.Plan)
	}

	red := fsReduction(sn, sc)
	t.Logf("radiosity: FS %d -> %d (%.1f%% reduction), miss rate %.3f%% -> %.3f%%",
		sn.FalseShare, sc.FalseShare, 100*red, 100*sn.MissRate(), 100*sc.MissRate())
	if red < 0.80 {
		t.Errorf("radiosity FS reduction %.1f%%, want >= 80%% (paper: 93.5%%)", 100*red)
	}

	// P: partial grouping + packed locks keeps substantial FS.
	pprog, err := core.CompileCtx(context.Background(), b.ProgrammerSource(1), core.Options{Nprocs: 12, BlockSize: 128})
	if err != nil {
		t.Fatalf("P compile: %v", err)
	}
	sp := measure(t, pprog, 12, 128)
	t.Logf("radiosity P: FS %d, miss rate %.3f%%", sp.FalseShare, 100*sp.MissRate())
	if sp.FalseShare <= sc.FalseShare {
		t.Errorf("compiler should beat programmer: C=%d P=%d", sc.FalseShare, sp.FalseShare)
	}
}

func TestRaytrace(t *testing.T) {
	b := Get("raytrace")
	res, sn, sc := evaluate(t, b, 1)

	ak := appliedKinds(res)
	if !ak[transform.KindGroupTranspose] || !ak[transform.KindLockPad] || !ak[transform.KindPadAlign] {
		t.Fatalf("raytrace wants G&T + pad + locks:\n%s", res.Plan)
	}
	// Busy hit counters skipped by profiling.
	skipped := false
	for _, s := range res.Plan.Skipped {
		if contains(s, "hit_shallow") && contains(s, "below threshold") {
			skipped = true
		}
	}
	if !skipped {
		t.Errorf("hit counters should be under the threshold:\n%s", res.Plan)
	}
	// scene stays untouched by the compiler.
	for _, d := range res.Applied {
		for _, obj := range d.Objects {
			if obj == "global:scene" {
				t.Errorf("scene must not be transformed: %s", d)
			}
		}
	}

	red := fsReduction(sn, sc)
	t.Logf("raytrace: FS %d -> %d (%.1f%% reduction), miss rate %.3f%% -> %.3f%%",
		sn.FalseShare, sc.FalseShare, 100*red, 100*sn.MissRate(), 100*sc.MissRate())
	if red < 0.55 || red > 0.95 {
		t.Errorf("raytrace FS reduction %.1f%%, want 55-95%% (paper: 78.3%%)", 100*red)
	}
	if sc.FalseShare == 0 {
		t.Errorf("raytrace must retain residual false sharing (busy scalars)")
	}

	// P: good grouping but the padded scene costs read misses.
	pprog, err := core.CompileCtx(context.Background(), b.ProgrammerSource(1), core.Options{Nprocs: 12, BlockSize: 128})
	if err != nil {
		t.Fatalf("P compile: %v", err)
	}
	sp := measure(t, pprog, 12, 128)
	t.Logf("raytrace P: FS %d, misses %d (C misses %d)", sp.FalseShare, sp.Misses(), sc.Misses())
	if sp.Misses() <= sc.Misses() {
		t.Errorf("P's padded scene should cost misses vs C: P=%d C=%d", sp.Misses(), sc.Misses())
	}
}
