package vm_test

import (
	"testing"

	"falseshare/internal/core"
	"falseshare/internal/vm"
	"falseshare/internal/workload"
)

// BenchmarkRun times the machine alone, New included, on every kernel
// at 12 processors, with a sink that only counts references. ns/instr
// and ns/ref divide the wall time by the instructions executed and the
// references emitted.
func BenchmarkRun(b *testing.B) {
	for _, w := range workload.All() {
		prog, err := core.Compile(w.Source(1), core.Options{Nprocs: 12, BlockSize: 128})
		if err != nil {
			b.Fatalf("%s: %v", w.Name, err)
		}
		bc := bytecode(b, prog)
		b.Run(w.Name, func(b *testing.B) {
			b.ReportAllocs()
			var instrs, refs int64
			for i := 0; i < b.N; i++ {
				m := vm.New(bc)
				if err := m.Run(func(vm.Ref) { refs++ }); err != nil {
					b.Fatal(err)
				}
				instrs += m.TotalInstrs()
			}
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/float64(instrs), "ns/instr")
			b.ReportMetric(ns/float64(refs), "ns/ref")
		})
	}
}
