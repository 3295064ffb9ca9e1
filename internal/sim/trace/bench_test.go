package trace

import (
	"testing"

	"falseshare/internal/vm"
)

// BenchmarkParTee measures the batched fan-out path that fssim -j uses
// to feed one simulator goroutine per block size. The
// sinks are deliberately trivial so the number isolates the delivery
// cost per reference per sink, not simulator work.
func BenchmarkParTee(b *testing.B) {
	refs := randRefs(3, 1<<14)
	mask := len(refs) - 1
	for _, nsinks := range []int{2, 4} {
		b.Run(map[int]string{2: "sinks2", 4: "sinks4"}[nsinks], func(b *testing.B) {
			var counts = make([]int64, nsinks)
			sinks := make([]Sink, nsinks)
			for i := range sinks {
				i := i
				sinks[i] = func(r vm.Ref) { counts[i]++ }
			}
			pt := NewParTee(0, sinks...)
			sink := pt.Sink()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink(refs[i&mask])
			}
			b.StopTimer()
			if err := pt.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkTraceWriter measures the binary encoder (the -save-trace
// path): one 14-byte record append per op into a reused buffer.
func BenchmarkTraceWriter(b *testing.B) {
	refs := randRefs(4, 1<<14)
	mask := len(refs) - 1
	w := NewWriter(discard{}, 56)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Write(refs[i&mask])
	}
	b.StopTimer()
	if _, err := w.Flush(); err != nil {
		b.Fatal(err)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
