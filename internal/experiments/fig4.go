package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"falseshare/internal/experiments/pool"
	"falseshare/internal/sim/ksr"
	"falseshare/internal/transform"
	"falseshare/internal/workload"
)

// Curve is one program version's speedup curve.
type Curve struct {
	Program  string
	Version  Version
	Counts   []int
	Speedup  []float64
	Cycles   []float64
	MaxSpeed float64
	MaxAt    int
}

// sweepJobs enumerates every (version × processor count) execution a
// benchmark's Figure 4 curves need, and returns the assembler that
// turns the results, indexed like the jobs, back into curves.
// Splitting enumeration from assembly lets Figure4 and Table3 fan the
// sweeps of *all* their benchmarks into one pool.
//
// The sweeps never attribute misses, so their callers clear cfg.Diag:
// -diag stays out of the sweep cells' store addresses.
func sweepJobs(b *workload.Benchmark, cfg Config, machine ksr.Config) ([]pool.Job[*ksr.Result], func([]*ksr.Result) []Curve) {
	execute := func(ver Version, p int) pool.Job[*ksr.Result] {
		key := fmt.Sprintf("fig4/%s/%s/p%d", b.Name, ver, p)
		return pool.Job[*ksr.Result]{
			Key: key,
			Run: func(ctx context.Context) (*ksr.Result, error) {
				prog, err := cfg.buildProgram(ctx, key, b, ver, p, machine.BlockSize, transform.Config{})
				if err != nil {
					return nil, fmt.Errorf("fig4 %s/%s: %w", b.Name, ver, err)
				}
				r, err := measureConfig(ctx, prog, machine.Cache(p), cfg.StepBudget, measureTimed)
				if err != nil {
					return nil, fmt.Errorf("fig4 %s/%s at %d procs: %w", b.Name, ver, p, err)
				}
				return r.time, nil
			},
		}
	}

	// The denominator of every speedup is the baseline version's
	// uniprocessor run: the sweep's own p1 point when the sweep has
	// one, else an extra first job.
	var jobs []pool.Job[*ksr.Result]
	base := 0
	if p1 := slices.Index(cfg.SweepCounts, 1); p1 >= 0 {
		base = slices.Index(Versions(b), Baseline(b))*len(cfg.SweepCounts) + p1
	} else {
		jobs = append(jobs, execute(Baseline(b), 1))
	}
	sweep := len(jobs)
	for _, ver := range Versions(b) {
		for _, p := range cfg.SweepCounts {
			jobs = append(jobs, execute(ver, p))
		}
	}

	assemble := func(results []*ksr.Result) []Curve {
		baseCycles := results[base].Cycles
		var curves []Curve
		i := sweep
		for _, ver := range Versions(b) {
			rs := results[i : i+len(cfg.SweepCounts)]
			i += len(cfg.SweepCounts)
			c := Curve{Program: b.Name, Version: ver, Counts: cfg.SweepCounts}
			for _, r := range rs {
				c.Cycles = append(c.Cycles, r.Cycles)
			}
			c.Speedup = ksr.SpeedupCurve(rs, baseCycles)
			c.MaxSpeed, c.MaxAt = ksr.MaxSpeedup(cfg.SweepCounts, c.Speedup)
			curves = append(curves, c)
		}
		return curves
	}
	return jobs, assemble
}

// SpeedupCurves computes the speedup curves of every available version
// of one benchmark over the configured processor counts, relative to
// the uniprocessor execution of the baseline (unoptimized) version —
// exactly as the paper's Figure 4 plots them. The sweep's executions
// fan out across cfg.Workers.
func SpeedupCurves(b *workload.Benchmark, cfg Config, machine ksr.Config) ([]Curve, error) {
	curves, err := benchCurves("fig4:"+b.Name, []*workload.Benchmark{b}, cfg, machine)
	if err != nil {
		// A speedup curve is meaningless with holes (every point is
		// relative to the baseline run), so a single benchmark's sweep
		// is all or nothing.
		return nil, err
	}
	return curves[0], nil
}

// benchCurves fans the sweeps of several benchmarks into one pool and
// assembles per-benchmark curves, preserving the given order. A
// benchmark that lost any sweep job to a failure gets nil curves —
// curves are relative measurements, so one hole invalidates the whole
// benchmark — while unaffected benchmarks assemble normally. The
// failed keys come back in the pool's *pool.MultiError.
func benchCurves(name string, benches []*workload.Benchmark, cfg Config, machine ksr.Config) ([][]Curve, error) {
	cfg.Diag = false
	var jobs []pool.Job[*ksr.Result]
	type slice struct {
		lo, hi   int
		assemble func([]*ksr.Result) []Curve
	}
	parts := make([]slice, len(benches))
	for i, b := range benches {
		js, assemble := sweepJobs(b, cfg, machine)
		parts[i] = slice{lo: len(jobs), hi: len(jobs) + len(js), assemble: assemble}
		jobs = append(jobs, js...)
	}
	results, err := runJobs(cfg, name, machine, jobs)
	out := make([][]Curve, len(benches))
	for i, s := range parts {
		if !slices.Contains(results[s.lo:s.hi], nil) {
			out[i] = s.assemble(results[s.lo:s.hi])
		}
	}
	return out, err
}

// Figure4 regenerates the paper's Figure 4: speedup curves for the
// three representative programs (Raytrace — compiler and programmer
// comparable; Fmm — programmer efforts bring little gain; Pverify —
// in between). All three programs' sweeps share one job pool.
func Figure4(cfg Config, machine ksr.Config) (map[string][]Curve, error) {
	names := []string{"raytrace", "fmm", "pverify"}
	benches := make([]*workload.Benchmark, len(names))
	for i, name := range names {
		b := workload.Get(name)
		if b == nil {
			return nil, fmt.Errorf("fig4: %s not registered", name)
		}
		benches[i] = b
	}
	curves, err := benchCurves("fig4", benches, cfg, machine)
	out := map[string][]Curve{}
	for i, name := range names {
		if curves[i] != nil {
			out[name] = curves[i]
		}
	}
	if err != nil && len(out) == 0 {
		return nil, err
	}
	return out, err
}

// printFigure4 prints Figure 4 as fsexp -fig4 does: a header line,
// then each program's RenderCurves block and a blank line, in program
// name order. As CSV (long format) it is one header line, then every
// program's rows in the same order.
func printFigure4(v any, csv bool) string {
	curves := v.(map[string][]Curve)
	names := make([]string, 0, len(curves))
	for name := range curves {
		names = append(names, name)
	}
	slices.Sort(names)
	var sb strings.Builder
	if !csv {
		sb.WriteString("Figure 4: speedup curves (N=unoptimized C=compiler P=programmer)\n")
		for _, name := range names {
			sb.WriteString(RenderCurves(curves[name]) + "\n")
		}
		return sb.String()
	}
	sb.WriteString("program,version,procs,speedup,cycles\n")
	for _, name := range names {
		for _, c := range curves[name] {
			for i, p := range c.Counts {
				fmt.Fprintf(&sb, "%s,%s,%d,%.4f,%.0f\n", c.Program, c.Version, p, c.Speedup[i], c.Cycles[i])
			}
		}
	}
	return sb.String()
}

// RenderCurves formats speedup curves as aligned columns (one row per
// processor count).
func RenderCurves(curves []Curve) string {
	if len(curves) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("%s: speedup vs processors (base: uniprocessor unoptimized)\n", curves[0].Program))
	sb.WriteString(fmt.Sprintf("%6s", "procs"))
	for _, c := range curves {
		sb.WriteString(fmt.Sprintf(" %10s", string(c.Version)))
	}
	sb.WriteString("\n")
	for i, p := range curves[0].Counts {
		sb.WriteString(fmt.Sprintf("%6d", p))
		for _, c := range curves {
			sb.WriteString(fmt.Sprintf(" %10.2f", c.Speedup[i]))
		}
		sb.WriteString("\n")
	}
	sb.WriteString("   max")
	for _, c := range curves {
		sb.WriteString(fmt.Sprintf(" %6.2f(%2d)", c.MaxSpeed, c.MaxAt))
	}
	sb.WriteString("\n")
	return sb.String()
}
