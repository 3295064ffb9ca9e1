package experiments

import (
	"context"
	"fmt"
	"strings"

	"falseshare/internal/experiments/pool"
	"falseshare/internal/sim/attr"
	"falseshare/internal/sim/cache"
	"falseshare/internal/transform"
	"falseshare/internal/workload"
)

// Fig3Cell is one bar of Figure 3: the miss rate of one program
// version at one block size, split into its false-sharing and other
// components.
type Fig3Cell struct {
	Program string
	Version Version
	Block   int64
	Procs   int

	Refs        int64
	FSMisses    int64
	OtherMisses int64
	FSRate      float64 // percent
	OtherRate   float64 // percent
}

// TotalRate returns the total miss rate in percent.
func (c Fig3Cell) TotalRate() float64 { return c.FSRate + c.OtherRate }

// Figure3 regenerates the paper's Figure 3: total miss rates of the
// unoptimized and compiler-transformed versions of the six
// unoptimizable programs at 16- and 128-byte blocks, 12 processors
// (Topopt: 9), with the false-sharing portion split out.
//
// The (program × version × block) cells are independent
// compile→run→simulate jobs; they are enumerated up front and fanned
// out across cfg.Workers, with the cell order fixed by enumeration.
//
// When some cells fail (and cfg.Policy keeps going), the surviving
// cells are returned alongside the pool's *pool.MultiError naming the
// failed ones, so callers can render the bars they have.
func Figure3(cfg Config) ([]Fig3Cell, error) {
	var jobs []pool.Job[Fig3Cell]
	for _, b := range workload.Unoptimizable() {
		for _, ver := range []Version{VersionN, VersionC} {
			// Block size affects the C version's padding, so compile
			// per block size.
			for _, blk := range cfg.Fig3Blocks {
				key := fmt.Sprintf("fig3/%s/%s/b%d", b.Name, ver, blk)
				jobs = append(jobs, missJob(cfg, key, b, ver, transform.Config{}, blk, cfg.Diag, func(st *cache.Stats) Fig3Cell {
					return Fig3Cell{
						Program:     b.Name,
						Version:     ver,
						Block:       blk,
						Procs:       fig3Procs(b),
						Refs:        st.Refs,
						FSMisses:    st.FalseShare,
						OtherMisses: st.Misses() - st.FalseShare,
						FSRate:      100 * st.FSRate(),
						OtherRate:   100 * st.OtherRate(),
					}
				}))
			}
		}
	}
	cells, err := runJobs(cfg, "fig3", nil, jobs)
	if err == nil {
		return cells, nil
	}
	// Keep the cells whose jobs succeeded.
	failed := failedKeys(err)
	var ok []Fig3Cell
	for i, j := range jobs {
		if !failed[j.Key] {
			ok = append(ok, cells[i])
		}
	}
	return ok, err
}

// missJob builds the one kind of cell behind Figure 3, Table 2 and the
// aggregates: b's version ver, built with heuristics heur for block
// size blk, run on the Figure 3 machine and measured under the default
// cache. With diag the measurement is attributed and the report
// recorded under the cell key. finish turns the statistics into the
// section's payload.
func missJob[T any](cfg Config, key string, b *workload.Benchmark, ver Version, heur transform.Config, blk int64, diag bool, finish func(*cache.Stats) T) pool.Job[T] {
	return pool.Job[T]{Key: key, Run: func(ctx context.Context) (T, error) {
		var zero T
		procs := fig3Procs(b)
		prog, err := cfg.buildProgram(ctx, key, b, ver, procs, blk, heur)
		if err != nil {
			return zero, err
		}
		ccfg := cache.DefaultConfig(procs, blk)
		var st *cache.Stats
		if diag {
			var rep *attr.Report
			if st, rep, err = MeasureConfigAttr(ctx, prog, ccfg, cfg.StepBudget); err == nil {
				recordDiag(ctx, DiagCell{
					Key:            key,
					Program:        b.Name,
					Version:        ver,
					Block:          blk,
					Procs:          procs,
					Applied:        decisionStrings(prog.Applied),
					AppliedTargets: decisionTargets(prog.Applied),
					Report:         rep,
				})
			}
		} else {
			st, err = MeasureConfig(ctx, prog, ccfg, cfg.StepBudget)
		}
		if err != nil {
			return zero, err
		}
		return finish(st), nil
	}}
}

// RenderFigure3 formats the cells like the paper's bar chart, as an
// ASCII table with one bar per row.
func RenderFigure3(cells []Fig3Cell) string {
	var sb strings.Builder
	sb.WriteString("Figure 3: total miss rates (%), false-sharing (FS) vs other, N=unoptimized C=compiler\n")
	sb.WriteString(fmt.Sprintf("%-11s %-3s %5s %6s | %8s %8s %8s   %s\n",
		"program", "ver", "block", "procs", "FS%", "other%", "total%", "bar (#=FS .=other)"))
	for _, c := range cells {
		bar := barString(c.FSRate, c.OtherRate)
		sb.WriteString(fmt.Sprintf("%-11s %-3s %5d %6d | %8.3f %8.3f %8.3f   %s\n",
			c.Program, c.Version, c.Block, c.Procs, c.FSRate, c.OtherRate, c.TotalRate(), bar))
	}
	return sb.String()
}

func barString(fs, other float64) string {
	const scale = 0.5 // columns per percent
	f := int(fs*scale + 0.5)
	o := int(other*scale + 0.5)
	if f > 60 {
		f = 60
	}
	if o > 60 {
		o = 60
	}
	return strings.Repeat("#", f) + strings.Repeat(".", o)
}
