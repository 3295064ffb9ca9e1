package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"falseshare/internal/cfg"
	"falseshare/internal/core"
	"falseshare/internal/experiments/pool"
	"falseshare/internal/lang/parser"
	"falseshare/internal/lang/types"
	"falseshare/internal/workload"
)

// CompileCostRow reports restructuring cost for one benchmark. The
// paper's claim (§3.1/§7): the false-sharing analyses and
// transformations added only ~5% to the restructurer's total running
// time, the rest being conventional compiler work (parsing, type
// checking, graph construction).
type CompileCostRow struct {
	Program string
	// Baseline is the conventional front-end time (parse + check +
	// CFG/call graph construction).
	Baseline time.Duration
	// Full is the complete restructuring time (baseline + the paper's
	// analyses + heuristics + rewrites + re-check + layout).
	Full time.Duration
}

// Overhead returns the added fraction: (Full-Baseline)/Full.
func (r CompileCostRow) Overhead() float64 {
	if r.Full <= 0 {
		return 0
	}
	return float64(r.Full-r.Baseline) / float64(r.Full)
}

// CompileCost measures front-end vs full-restructurer time over the
// suite with ecfg's scale, workers and policy, restructuring for 12
// processors and 128-byte blocks. Each measurement repeats five times
// and keeps the minimum (the usual noise-robust choice for
// microtimings). One job per benchmark; the minimum-of-reps absorbs
// most of the scheduling noise concurrent timing adds, but the
// steadiest numbers come from ecfg.Workers == 1.
//
// When some benchmarks fail (and ecfg.Policy keeps going), the
// surviving rows are returned with a *Partial error naming the rest.
// The jobs run without ecfg.Store, so timings are never stored: every
// run, resumed or not, measures afresh.
func CompileCost(ecfg Config) ([]CompileCostRow, error) {
	const nprocs, reps = 12, 5
	ecfg.Store = nil
	scale := ecfg.Scale
	var jobs []pool.Job[CompileCostRow]
	for _, b := range workload.All() {
		jobs = append(jobs, pool.Job[CompileCostRow]{
			Key: "compilecost/" + b.Name,
			Run: func(ctx context.Context) (CompileCostRow, error) {
				src := b.Source(scale)
				row := CompileCostRow{Program: b.Name}

				base, err := minTime(reps, func() error {
					f, err := parser.Parse(src)
					if err != nil {
						return err
					}
					info, err := types.Check(f)
					if err != nil {
						return err
					}
					cfg.BuildProgram(f)
					_ = info
					return nil
				})
				if err != nil {
					return row, fmt.Errorf("compilecost %s baseline: %w", b.Name, err)
				}
				row.Baseline = base

				full, err := minTime(reps, func() error {
					_, err := core.RestructureCtx(ctx, src, core.Options{Nprocs: nprocs, BlockSize: 128})
					return err
				})
				if err != nil {
					return row, fmt.Errorf("compilecost %s full: %w", b.Name, err)
				}
				row.Full = full
				return row, nil
			},
		})
	}
	rows, err := runJobs(ecfg, "compilecost", nil, jobs)
	if err == nil {
		return rows, nil
	}
	failed := failedKeys(err)
	var ok []CompileCostRow
	for i, j := range jobs {
		if !failed[j.Key] {
			ok = append(ok, rows[i])
		}
	}
	return ok, partial(err, len(jobs))
}

func minTime(reps int, f func() error) (time.Duration, error) {
	best := time.Duration(1<<62 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, nil
}

// RenderCompileCost formats the rows.
func RenderCompileCost(rows []CompileCostRow) string {
	var sb strings.Builder
	sb.WriteString("Compile cost: conventional front end vs full restructuring\n")
	sb.WriteString(fmt.Sprintf("%-11s %12s %12s %10s\n", "program", "front end", "restructure", "added"))
	var totB, totF time.Duration
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-11s %12s %12s %9.1f%%\n",
			r.Program, r.Baseline.Round(time.Microsecond), r.Full.Round(time.Microsecond), 100*r.Overhead()))
		totB += r.Baseline
		totF += r.Full
	}
	agg := CompileCostRow{Baseline: totB, Full: totF}
	sb.WriteString(fmt.Sprintf("%-11s %12s %12s %9.1f%%  (paper: analyses were ~5%% of the restructurer)\n",
		"total", totB.Round(time.Microsecond), totF.Round(time.Microsecond), 100*agg.Overhead()))
	return sb.String()
}
