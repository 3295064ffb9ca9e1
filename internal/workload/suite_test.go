package workload

import (
	"context"
	"testing"

	"falseshare/internal/core"
	"falseshare/internal/vm"
)

// TestSuiteRunsEverywhere executes every version of every benchmark
// at awkward processor counts (including non-dividing ones) and
// asserts clean termination — no deadlocks, bounds violations, null
// dereferences or arena exhaustion anywhere in the matrix.
func TestSuiteRunsEverywhere(t *testing.T) {
	counts := []int{1, 7, 13}
	for _, b := range All() {
		for _, nprocs := range counts {
			// N (or base) version.
			prog, err := core.CompileCtx(context.Background(), b.Source(1), core.Options{Nprocs: nprocs, BlockSize: 128})
			if err != nil {
				t.Fatalf("%s base compile at %d: %v", b.Name, nprocs, err)
			}
			runToCompletion(t, b.Name+"/base", prog, nprocs)

			// C version.
			res, err := core.Restructure(b.Source(1), core.Options{Nprocs: nprocs, BlockSize: 128})
			if err != nil {
				t.Fatalf("%s restructure at %d: %v", b.Name, nprocs, err)
			}
			runToCompletion(t, b.Name+"/C", res.Transformed, nprocs)

			// P version where distinct.
			if b.PSource != nil {
				pprog, err := core.CompileCtx(context.Background(), b.PSource(1), core.Options{Nprocs: nprocs, BlockSize: 128})
				if err != nil {
					t.Fatalf("%s P compile at %d: %v", b.Name, nprocs, err)
				}
				runToCompletion(t, b.Name+"/P", pprog, nprocs)
			}
		}
	}
}

func runToCompletion(t *testing.T, label string, prog *core.Program, nprocs int) {
	t.Helper()
	bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, nprocs)
	if err != nil {
		t.Fatalf("%s vm compile at %d procs: %v", label, nprocs, err)
	}
	m := vm.New(bc)
	if err := m.Run(nil); err != nil {
		t.Fatalf("%s run at %d procs: %v", label, nprocs, err)
	}
	// Every process must have done real work.
	for _, p := range m.Procs() {
		if p.Instrs == 0 {
			t.Errorf("%s at %d procs: process %d executed nothing", label, nprocs, p.ID)
		}
	}
}

// TestSuiteMetadata validates the registry against Table 1.
func TestSuiteMetadata(t *testing.T) {
	type row struct {
		lines int
		hasN  bool
		hasP  bool
	}
	table1 := map[string]row{
		"maxflow":    {810, true, false},
		"pverify":    {2759, true, true},
		"topopt":     {2206, true, true},
		"fmm":        {4395, true, true},
		"radiosity":  {10908, true, true},
		"raytrace":   {12391, true, true},
		"locusroute": {6709, false, true},
		"mp3d":       {1653, false, true},
		"pthor":      {9420, false, true},
		"water":      {1451, false, true},
	}
	if len(All()) != len(table1) {
		t.Fatalf("suite size = %d, want %d", len(All()), len(table1))
	}
	for name, want := range table1 {
		b := Get(name)
		if b == nil {
			t.Errorf("%s missing", name)
			continue
		}
		if b.PaperLines != want.lines {
			t.Errorf("%s paper lines = %d, want %d", name, b.PaperLines, want.lines)
		}
		if b.HasN != want.hasN || b.HasP != want.hasP {
			t.Errorf("%s versions N=%v P=%v, want N=%v P=%v", name, b.HasN, b.HasP, want.hasN, want.hasP)
		}
		if b.Description == "" || b.FigureRef == "" {
			t.Errorf("%s missing metadata", name)
		}
		if b.ProgrammerSource(1) == "" && want.hasP {
			t.Errorf("%s should have a programmer source", name)
		}
	}
}

// TestScaleParameter verifies workloads scale their trace size.
func TestScaleParameter(t *testing.T) {
	b := Get("raytrace")
	small := measure(t, compileN(t, b, 1), 4, 128)
	big := measure(t, compileN(t, b, 3), 4, 128)
	if big.Refs < small.Refs*2 {
		t.Errorf("scale=3 refs (%d) should be well above scale=1 (%d)", big.Refs, small.Refs)
	}
}

func compileN(t *testing.T, b *Benchmark, scale int) *core.Program {
	t.Helper()
	prog, err := core.CompileCtx(context.Background(), b.Source(scale), core.Options{Nprocs: 4, BlockSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}
