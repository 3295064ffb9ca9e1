package workload

import (
	"context"
	"testing"

	"falseshare/internal/core"
	"falseshare/internal/vm"
)

// TestStrongScaling asserts the workloads divide a fixed amount of
// work: the total instruction count of each base program must stay
// roughly constant as processors are added (sub-linear growth is
// allowed for synchronization overhead). A kernel with a fixed
// per-process component would grow linearly with P and invalidate the
// speedup experiments.
func TestStrongScaling(t *testing.T) {
	for _, b := range All() {
		i1 := totalInstrs(t, b, 1)
		i16 := totalInstrs(t, b, 16)
		growth := float64(i16) / float64(i1)
		t.Logf("%s: instrs 1p=%d 16p=%d growth=%.2fx", b.Name, i1, i16, growth)
		// Allow up to 2.5x for spin/synchronization overhead; a
		// weak-scaling kernel would show ~16x.
		if growth > 2.5 {
			t.Errorf("%s: total work grows %.1fx from 1 to 16 procs (weak scaling?)", b.Name, growth)
		}
	}
}

func totalInstrs(t *testing.T, b *Benchmark, nprocs int) int64 {
	t.Helper()
	prog, err := core.CompileCtx(context.Background(), b.Source(1), core.Options{Nprocs: nprocs, BlockSize: 128})
	if err != nil {
		t.Fatalf("%s at %d: %v", b.Name, nprocs, err)
	}
	bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, nprocs)
	if err != nil {
		t.Fatalf("%s at %d: %v", b.Name, nprocs, err)
	}
	m := vm.New(bc)
	if err := m.Run(nil); err != nil {
		t.Fatalf("%s at %d: %v", b.Name, nprocs, err)
	}
	var total int64
	for _, p := range m.Procs() {
		total += p.Instrs
	}
	return total
}
