package cache

import (
	"context"
	"fmt"
	"testing"

	"falseshare/internal/core"
	"falseshare/internal/vm"
	"falseshare/internal/workload"
)

// benchTrace builds a deterministic mixed workload shaped like the
// real benchmarks: per-processor hot regions with a shared heap,
// ~30% writes, a sprinkle of block-spanning doubles. Length is a
// power of two so replay can index with a mask.
func benchTrace(nprocs, n int) []traceRef {
	return genTrace(0xbe7c4, nprocs, n)
}

// BenchmarkAccess measures the simulator's miss path: one Sim.Access
// per op on a 12-processor configuration at 16-, 64- and 256-byte
// blocks, allocations included. Its synthetic trace misses far more
// often than a kernel's, so the hit path barely shows in it; see
// BenchmarkReplay for that.
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
// to one simulator per block size (16/64/128/256), as an fssim sweep
// does with -diag or on one CPU. One op = one reference through all four simulators.
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

// BenchmarkReplay replays kernel traces: maxflow unoptimized (N) and
// restructured by the compiler (C), run on the VM at 12 processors
// with a 128-byte layout and captured once, before the timer. Each op
// replays a whole trace into a fresh simulator, per protocol at 16-
// and 128-byte blocks, and ns/ref is its time per reference. A kernel
// trace mostly hits, so this is the benchmark for the hit path; the
// traced bench/ run reports the same cost as cache.ns_per_ref. -short
// replays N alone.
func BenchmarkReplay(b *testing.B) {
	versions := []string{"N", "C"}
	if testing.Short() {
		versions = versions[:1]
	}
	for _, ver := range versions {
		refs := captureTrace(b, "maxflow", ver == "C")
		for _, proto := range []Protocol{WriteInvalidate, MESI, WriteUpdate} {
			for _, blk := range []int64{16, 128} {
				b.Run(fmt.Sprintf("maxflow-%s/%s/b%d", ver, proto, blk), func(b *testing.B) {
					cfg := DefaultConfig(12, blk)
					cfg.Protocol = proto
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						s := mustNew(b, cfg)
						b.StartTimer()
						for _, r := range refs {
							s.Access(r.Proc, r.Addr, int64(r.Size), r.Write)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(refs)), "ns/ref")
				})
			}
		}
	}
}

// captureTrace runs a kernel at 12 processors with a 128-byte layout,
// restructured or not, and returns its shared references.
func captureTrace(b *testing.B, kernel string, restructured bool) []vm.Ref {
	b.Helper()
	ctx := context.Background()
	opt := core.Options{Nprocs: 12, BlockSize: 128}
	src := workload.Get(kernel).Source(1)
	var prog *core.Program
	if restructured {
		res, err := core.RestructureCtx(ctx, src, opt)
		if err != nil {
			b.Fatal(err)
		}
		prog = res.Transformed
	} else {
		var err error
		if prog, err = core.CompileCtx(ctx, src, opt); err != nil {
			b.Fatal(err)
		}
	}
	bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, opt.Nprocs)
	if err != nil {
		b.Fatal(err)
	}
	var refs []vm.Ref
	if err := vm.New(bc).Run(func(r vm.Ref) { refs = append(refs, r) }); err != nil {
		b.Fatal(err)
	}
	return refs
}
