package core

import (
	"math/rand"
	"testing"

	"falseshare/internal/transform"
	"falseshare/internal/vm"
	"falseshare/internal/workload/gen"
)

// checksum runs a program and reads the result global.
func checksum(t *testing.T, prog *Program, nprocs int) int64 {
	t.Helper()
	bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, nprocs)
	if err != nil {
		t.Fatalf("vm compile: %v", err)
	}
	m := vm.New(bc)
	if err := m.Run(nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m.ReadInt(prog.Layout.Var("result").Base)
}

// TestDifferentialRandomPrograms is the compiler's broadest
// correctness property: for randomly generated programs, the
// restructured version computes the same result as the original.
func TestDifferentialRandomPrograms(t *testing.T) {
	const cases = 60
	for seed := 0; seed < cases; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		src := gen.Idioms(r)
		nprocs := []int{2, 5, 8}[seed%3]
		res, err := Restructure(src, Options{
			Nprocs: nprocs, BlockSize: 64,
			// Low threshold so transformations actually fire on these
			// small programs.
			Heuristics: heurLowThreshold(),
		})
		if err != nil {
			t.Fatalf("seed %d: restructure: %v\n%s", seed, err, src)
		}
		want := checksum(t, res.Original, nprocs)
		got := checksum(t, res.Transformed, nprocs)
		if want != got {
			t.Errorf("seed %d: checksum changed %d -> %d\ndecisions:\n%s\nsource:\n%s\ntransformed:\n%s",
				seed, want, got, res.Plan, src, res.Transformed.Source)
		}
	}
}

// heurLowThreshold builds a heuristics config with a permissive
// frequency threshold.
func heurLowThreshold() transform.Config {
	return transform.Config{FreqThreshold: 2}
}
