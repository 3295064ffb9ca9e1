package cache

import (
	"fmt"
	"testing"
)

// benchTrace builds a deterministic mixed workload shaped like the
// real benchmarks: per-processor hot regions with a shared heap,
// ~30% writes, a sprinkle of block-spanning doubles. Length is a
// power of two so replay can index with a mask.
func benchTrace(nprocs, n int) []traceRef {
	return genTrace(0xbe7c4, nprocs, n)
}

// BenchmarkAccess measures the simulator hot path: one Sim.Access per
// op on a 12-processor configuration at 16-, 64- and 256-byte blocks,
// allocations included. The traced bench/ run reports the same cost
// on real traces as cache.ns_per_ref — the paper's whole evaluation
// is tens of millions of these calls.
func BenchmarkAccess(b *testing.B) {
	for _, blk := range []int64{16, 64, 256} {
		b.Run(fmt.Sprintf("b%d", blk), func(b *testing.B) {
			s := mustNew(b, DefaultConfig(12, blk))
			tr := benchTrace(12, 1<<16)
			mask := len(tr) - 1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := tr[i&mask]
				s.Access(r.proc, r.addr, r.size, r.write)
			}
		})
	}
}

// BenchmarkAccessWide is BenchmarkAccess at the machine widths the
// paper's KSR2 discussion gestures at: 128, 256 and 1024 processors
// (sharer vectors of 2, 4 and 16 words) at the 64-byte block size.
// Before the multi-word directory these configurations fell off the
// O(procs × assoc) scan cliff — roughly 10× the 12-proc ns/ref; the
// vector walk keeps them within the same band.
func BenchmarkAccessWide(b *testing.B) {
	for _, nprocs := range []int{128, 256, 1024} {
		b.Run(fmt.Sprintf("p%d", nprocs), func(b *testing.B) {
			s := mustNew(b, DefaultConfig(nprocs, 64))
			tr := benchTrace(nprocs, 1<<16)
			mask := len(tr) - 1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := tr[i&mask]
				s.Access(r.proc, r.addr, r.size, r.write)
			}
		})
	}
}

// BenchmarkAccessWordInvalidate is BenchmarkAccess under the Dubois
// per-word-invalidation protocol (the §6 hardware ablation).
func BenchmarkAccessWordInvalidate(b *testing.B) {
	cfg := DefaultConfig(12, 128)
	cfg.SectorSize = WordSize
	s := mustNew(b, cfg)
	tr := benchTrace(12, 1<<16)
	mask := len(tr) - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := tr[i&mask]
		s.Access(r.proc, r.addr, r.size, r.write)
	}
}

// BenchmarkAccessReference replays BenchmarkAccess's exact workload
// through the retired map-based implementation (refsim_test.go), so
// `benchstat` on the two series shows what the flat paged tables buy.
func BenchmarkAccessReference(b *testing.B) {
	for _, blk := range []int64{16, 64, 256} {
		b.Run(fmt.Sprintf("b%d", blk), func(b *testing.B) {
			s := newRefSim(DefaultConfig(12, blk))
			tr := benchTrace(12, 1<<16)
			mask := len(tr) - 1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := tr[i&mask]
				s.Access(r.proc, r.addr, r.size, r.write)
			}
		})
	}
}

// BenchmarkSweep measures a block-size sweep: the same reference fed
// to one simulator per block size (16/64/128/256), as fssim -j 1
// does. One op = one reference through all four simulators.
func BenchmarkSweep(b *testing.B) {
	blocks := []int64{16, 64, 128, 256}
	sims := make([]*Sim, len(blocks))
	for i, blk := range blocks {
		sims[i] = mustNew(b, DefaultConfig(12, blk))
	}
	tr := benchTrace(12, 1<<16)
	mask := len(tr) - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := tr[i&mask]
		for _, s := range sims {
			s.Access(r.proc, r.addr, r.size, r.write)
		}
	}
}
