package falseshare

import (
	"context"
	"fmt"
	"testing"

	"falseshare/internal/core"
	"falseshare/internal/experiments"
	"falseshare/internal/sim/cache"
	"falseshare/internal/sim/ksr"
	"falseshare/internal/transform"
	"falseshare/internal/vm"
	"falseshare/internal/workload"
)

// The benchmarks below regenerate the paper's evaluation. Each
// bench's body performs one full experiment per iteration and reports
// the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces every table and figure. Shapes (who wins, by roughly
// what factor, where curves cross) are the reproduction target; see
// EXPERIMENTS.md for paper-vs-measured values.

func quickCfg() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.SweepCounts = []int{1, 2, 4, 8, 12, 16, 20, 28}
	cfg.Table2Blocks = []int64{16, 64, 128, 256}
	return cfg
}

// BenchmarkFigure3 regenerates Figure 3: miss rates split into false
// sharing vs other for the unoptimized and compiler versions at 16B
// and 128B blocks.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Figure3(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, c := range cells {
				if c.Block == 128 {
					b.ReportMetric(c.FSRate, fmt.Sprintf("fs%%_%s_%s", c.Program, c.Version))
				}
			}
			b.Logf("\n%s", experiments.RenderFigure3(cells))
		}
	}
}

// BenchmarkTable2 regenerates Table 2: false-sharing reduction broken
// down by transformation, averaged over block sizes.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.Total, "red%_"+r.Program)
			}
			b.Logf("\n%s", experiments.RenderTable2(rows))
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4: speedup curves for the three
// representative programs.
func BenchmarkFigure4(b *testing.B) {
	machine := ksr.DefaultConfig()
	for i := 0; i < b.N; i++ {
		curves, err := experiments.Figure4(quickCfg(), machine)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, name := range []string{"raytrace", "fmm", "pverify"} {
				for _, c := range curves[name] {
					b.ReportMetric(c.MaxSpeed, fmt.Sprintf("max_%s_%s", name, c.Version))
				}
				b.Logf("\n%s", experiments.RenderCurves(curves[name]))
			}
		}
	}
}

// BenchmarkTable3 regenerates Table 3: maximum speedups across the
// whole suite.
func BenchmarkTable3(b *testing.B) {
	machine := ksr.DefaultConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(quickCfg(), machine)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.RenderTable3(rows))
		}
	}
}

// BenchmarkAggregates regenerates the §1/§5 headline numbers at 128B.
func BenchmarkAggregates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := experiments.ComputeAggregates(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*a.FSFractionOfMisses, "fs_frac%")
			b.ReportMetric(100*a.FSEliminated, "fs_elim%")
			b.ReportMetric(100*a.OtherIncrease, "other_incr%")
			b.ReportMetric(100*a.TotalMissReduction, "total_red%")
			b.Logf("\n%s", a.Render())
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation benches for the design choices DESIGN.md calls out.

// BenchmarkAblationNoProfiling disables static profiling: without
// frequency weighting, cold data gets padded too (spatial-locality
// loss) and busy scalars are indistinguishable from cold ones.
func BenchmarkAblationNoProfiling(b *testing.B) {
	bm := workload.Get("maxflow")
	for i := 0; i < b.N; i++ {
		for _, noProf := range []bool{false, true} {
			res, err := core.Restructure(bm.Source(1), core.Options{
				Nprocs: 12, BlockSize: 128, NoProfiling: noProf,
			})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("noProfiling=%v: %d decisions, %d skipped",
					noProf, len(res.Applied), len(res.Plan.Skipped))
			}
		}
	}
}

// BenchmarkAblationLockCoAllocation compares padded locks against
// Torrellas-style co-allocation on the lock-heavy radiosity kernel.
func BenchmarkAblationLockCoAllocation(b *testing.B) {
	bm := workload.Get("radiosity")
	machine := ksr.DefaultConfig()
	for i := 0; i < b.N; i++ {
		for _, coalloc := range []bool{false, true} {
			prog, err := experiments.ProgramCtx(context.Background(), bm, experiments.VersionC, 12, 1, 128,
				transform.Config{CoAllocateLocks: coalloc})
			if err != nil {
				b.Fatal(err)
			}
			r, err := ksr.ExecuteCtx(context.Background(), prog, machine)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				label := "padded"
				if coalloc {
					label = "coallocated"
				}
				b.ReportMetric(r.Cycles, "cycles_"+label)
			}
		}
	}
}

// BenchmarkAblationWriteDominance sweeps the §3.3 write:read dominance
// threshold.
func BenchmarkAblationWriteDominance(b *testing.B) {
	bm := workload.Get("fmm")
	for i := 0; i < b.N; i++ {
		for _, dom := range []float64{2, 10, 100} {
			res, err := core.Restructure(bm.Source(1), core.Options{
				Nprocs: 12, BlockSize: 128,
				Heuristics: transform.Config{WriteDominance: dom},
			})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("dominance=%g: %d decisions", dom, len(res.Applied))
			}
		}
	}
}

// BenchmarkAblationRSDLimit sweeps the descriptor cap (paper: 10).
func BenchmarkAblationRSDLimit(b *testing.B) {
	bm := workload.Get("topopt")
	for i := 0; i < b.N; i++ {
		for _, limit := range []int{1, 10} {
			res, err := core.Restructure(bm.Source(1), core.Options{
				Nprocs: 12, BlockSize: 128, RSDLimit: limit,
			})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("rsdLimit=%d: %d decisions", limit, len(res.Applied))
			}
		}
	}
}

// BenchmarkAblationWordInvalidateHW compares the paper's compile-time
// approach against the hardware alternative of Dubois et al. (§6):
// per-word invalidation eliminates false-sharing misses entirely, but
// costs per-word valid bits and extra traffic; the compiler gets most
// of the benefit with no hardware change. Reported metrics are misses
// on the unoptimized program under both protocols, and on the
// transformed program under the normal protocol.
func BenchmarkAblationWordInvalidateHW(b *testing.B) {
	bm := workload.Get("pverify")
	for i := 0; i < b.N; i++ {
		res, err := core.Restructure(bm.Source(1), core.Options{Nprocs: 12, BlockSize: 128})
		if err != nil {
			b.Fatal(err)
		}
		measure := func(prog *core.Program, wordInval bool) int64 {
			bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, 12)
			if err != nil {
				b.Fatal(err)
			}
			cfg := cache.DefaultConfig(12, 128)
			if wordInval {
				cfg.SectorSize = cache.WordSize
			}
			sim, err := cache.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			m := vm.New(bc)
			if err := m.Run(func(r vm.Ref) {
				sim.Access(r.Proc, r.Addr, int64(r.Size), r.Write)
			}); err != nil {
				b.Fatal(err)
			}
			if wordInval && sim.Stats().FalseShare != 0 {
				b.Fatalf("word invalidation left FS misses")
			}
			return sim.Stats().Misses()
		}
		if i == 0 {
			b.ReportMetric(float64(measure(res.Original, false)), "miss_N_invalidate")
			b.ReportMetric(float64(measure(res.Original, true)), "miss_N_wordinval")
			b.ReportMetric(float64(measure(res.Transformed, false)), "miss_C_invalidate")
		}
	}
}

// BenchmarkVM measures raw VM execution speed (instructions/op) on
// the largest kernel, for substrate performance tracking.
func BenchmarkVM(b *testing.B) {
	bm := workload.Get("pverify")
	prog, err := core.CompileCtx(context.Background(), bm.Source(1), core.Options{Nprocs: 12, BlockSize: 128})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := experiments.MeasureConfig(context.Background(), prog, cache.DefaultConfig(12, 128), 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(st.Refs), "refs")
	}
}
