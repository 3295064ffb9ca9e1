package experiments

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"falseshare/internal/core"
	"falseshare/internal/sim/ksr"
	"falseshare/internal/transform"
	"falseshare/internal/workload"
)

// The sweeps measure on the KSR model through measureConfig, like
// every other cell. The TestKSRPath tests pin that path against
// ksr.ExecuteCtx, its span shape against a Figure 3 cell's, and its
// memo entries apart from plain measurements'.

// TestGoldenSweepCycles pins every sweep point of Table 3 bit for bit,
// on one ring (1, 2, 4 and 32 processors) and across two (40 and 56):
// each program × version × count's KSR cycle count, printed in full
// precision. The figure goldens print speedups to two decimals only;
// this one catches any change to the timing model's inputs or to the
// order it sums phases in. Rewrite it with -update.
func TestGoldenSweepCycles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.SweepCounts = []int{1, 2, 4, 32, 40, 56}
	rows, err := Table3(cfg, ksr.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, r := range rows {
		for _, c := range r.Curves {
			for i, p := range c.Counts {
				fmt.Fprintf(&sb, "%s %s %d %s\n", c.Program, c.Version, p, strconv.FormatFloat(c.Cycles[i], 'g', -1, 64))
			}
		}
	}
	const path = "testdata/sweep_cycles.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		w, g := firstDiff(want, []byte(got))
		t.Errorf("sweep cycles differ from %s:\n--- want ---\n%s\n--- got ---\n%s", path, w, g)
	}
}

// TestKSRPathMatchesExecute: a sweep cell's result equals what
// ksr.ExecuteCtx computes for the same program, cycle for cycle, for
// every kernel and version on one ring and across two.
func TestKSRPathMatchesExecute(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SweepCounts = []int{1, 4, 12, 40}
	machine := ksr.DefaultConfig()
	ctx := context.Background()
	for _, b := range workload.All() {
		jobs, _ := sweepJobs(b, cfg, machine)
		i := 0
		for _, ver := range Versions(b) {
			for _, p := range cfg.SweepCounts {
				got, err := jobs[i].Run(ctx)
				i++
				if err != nil {
					t.Fatal(err)
				}
				prog, err := ProgramCtx(ctx, b, ver, p, cfg.Scale, machine.BlockSize, transform.Config{})
				if err != nil {
					t.Fatal(err)
				}
				want, err := ksr.ExecuteCtx(ctx, prog, machine)
				if err != nil {
					t.Fatal(err)
				}
				if got.Cycles != want.Cycles || got.Instrs != want.Instrs || got.Phases != want.Phases || got.P != want.P {
					t.Errorf("%s/%s/p%d: sweep path %v cycles, %d instrs, %d phases; ExecuteCtx %v, %d, %d",
						b.Name, ver, p, got.Cycles, got.Instrs, got.Phases, want.Cycles, want.Instrs, want.Phases)
				}
				if !reflect.DeepEqual(got.Stats, want.Stats) {
					t.Errorf("%s/%s/p%d: sweep path stats %s, ExecuteCtx %s", b.Name, ver, p, got.Stats, want.Stats)
				}
			}
		}
	}
}

// TestKSRPathPhases: the sweep path accounts a run with one barrier as
// two phases, as ksr's TestPhaseAccounting does for ExecuteCtx.
func TestKSRPathPhases(t *testing.T) {
	const src = `
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
	r, err := measureConfig(context.Background(), prog, ksr.DefaultConfig().Cache(4), 0, measureTimed)
	if err != nil {
		t.Fatal(err)
	}
	if r.time.Phases != 2 {
		t.Fatalf("phases = %d, want 2", r.time.Phases)
	}
}

// TestKSRPathSpanShape: a sweep cell records the span shape of a
// Figure 3 cell, the build's compile span, then measure with the VM
// run under it, so a -reportdir manifest reads the same for every
// measured cell.
func TestKSRPathSpanShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fig3Blocks = []int64{128}
	cfg.SweepCounts = []int{2}
	e, err := Collect(cfg, SectionSet{Sections: []string{"fig3", "fig4"}, Machine: ksr.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	// shape names a cell's top-level spans and the children of its
	// measure span.
	shape := func(key string) string {
		_, spans, err, ok := e.Run(context.Background(), key)
		if !ok || err != nil {
			t.Fatalf("%s: ran %v, %v", key, ok, err)
		}
		var names []string
		for _, s := range spans {
			names = append(names, s.Name)
			if s.Name == "measure" {
				for _, c := range s.Children {
					names = append(names, "measure/"+c.Name)
				}
			}
		}
		return strings.Join(names, " ")
	}
	const want = "compile measure measure/vm.run"
	if got := shape("fig3/pverify/N/b128"); got != want {
		t.Fatalf("Figure 3 cell spans %q, want %q", got, want)
	}
	for _, key := range []string{"fig4/pverify/N/p1", "fig4/pverify/N/p2"} {
		if got := shape(key); got != want {
			t.Errorf("%s spans %q, want %q", key, got, want)
		}
	}
}

// TestKSRPathMemoKinds: under one memo, a timed measurement and a plain
// one of the same program under the same cache geometry each run the
// VM once, and repeating either runs it no more. vm.run's third hit
// fails, so a run is counted by its error.
func TestKSRPathMemoKinds(t *testing.T) {
	machine := ksr.DefaultConfig()
	prog, err := ProgramCtx(context.Background(), workload.Get("pverify"), VersionN, 4, 1, machine.BlockSize, transform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, timedFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("timed-first=%v", timedFirst), func(t *testing.T) {
			enableFaults(t, "vm.run:error:after=2")
			ctx := WithMeasureMemo(context.Background())
			timed := func() {
				r, err := measureConfig(ctx, prog, machine.Cache(4), 0, measureTimed)
				if err != nil || r.time == nil || r.time.Cycles <= 0 {
					t.Fatalf("timed measurement: %+v, %v", r.time, err)
				}
			}
			plain := func() {
				if _, err := MeasureConfig(ctx, prog, machine.Cache(4), 0); err != nil {
					t.Fatalf("plain measurement: %v", err)
				}
			}
			first, second := plain, timed
			if timedFirst {
				first, second = timed, plain
			}
			first()
			second()
			for i := 0; i < 2; i++ {
				timed()
				plain()
			}
			if _, _, err := MeasureConfigAttr(ctx, prog, machine.Cache(4), 0); err == nil {
				t.Fatal("the two kinds ran the VM fewer than two times")
			}
		})
	}
}
