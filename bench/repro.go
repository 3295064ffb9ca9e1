package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"falseshare/internal/experiments"
	"falseshare/internal/sim/ksr"
	"falseshare/internal/workload"
)

// reproSections regenerate the paper's evaluation at the golden
// configurations of cmd/fsexp's golden tests, rendered exactly as
// fsexp prints them.
var reproSections = []struct {
	name   string
	render func(cfg experiments.Config, mopt experiments.MatrixOptions) (string, error)
}{
	{"fig3", func(cfg experiments.Config, _ experiments.MatrixOptions) (string, error) {
		cells, err := experiments.Figure3(cfg)
		return experiments.RenderFigure3(cells) + "\n", err
	}},
	{"table2", func(cfg experiments.Config, _ experiments.MatrixOptions) (string, error) {
		rows, err := experiments.Table2(cfg)
		return experiments.RenderTable2(rows) + "\n", err
	}},
	{"fig4", func(cfg experiments.Config, _ experiments.MatrixOptions) (string, error) {
		curves, err := experiments.Figure4(cfg, ksr.DefaultConfig())
		names := make([]string, 0, len(curves))
		for n := range curves {
			names = append(names, n)
		}
		sort.Strings(names)
		out := "Figure 4: speedup curves (N=unoptimized C=compiler P=programmer)\n"
		for _, n := range names {
			out += experiments.RenderCurves(curves[n]) + "\n"
		}
		return out, err
	}},
	{"matrix", func(cfg experiments.Config, mopt experiments.MatrixOptions) (string, error) {
		cells, err := experiments.Matrix(cfg, mopt)
		return experiments.RenderMatrix(cells) + "\n", err
	}},
}

// reproConfig is the golden configuration, run on two workers.
func reproConfig() (experiments.Config, experiments.MatrixOptions) {
	cfg := experiments.DefaultConfig()
	cfg.Workers = 2
	cfg.Fig3Blocks = []int64{16, 128}
	cfg.Table2Blocks = []int64{32, 128}
	cfg.SweepCounts = []int{1, 2, 4}
	return cfg, experiments.MatrixOptions{Workloads: 8, Seed: 1, Procs: 8, Block: 64, ScaleMin: true}
}

// setupRepro loads the goldens. The inputs are the fixed paper suite,
// so the seed does not apply; one operation is one pass over all four
// sections, each byte-compared to its golden.
func setupRepro(ctx context.Context, o options) (*bench, error) {
	golden := map[string]string{}
	for _, s := range reproSections {
		b, err := os.ReadFile(filepath.Join(o.root, "cmd", "fsexp", "testdata", s.name+".golden"))
		if err != nil {
			return nil, err
		}
		golden[s.name] = string(b)
	}
	cfg, mopt := reproConfig()
	b := &bench{workers: 1, close: func() {}}
	b.op = func(ctx context.Context, tr *tracer, i int64) error {
		cfg := cfg
		cfg.Ctx = ctx
		for _, s := range reproSections {
			var out string
			var err error
			tr.do(i, 0, "repro."+s.name, func() map[string]int64 {
				out, err = s.render(cfg, mopt)
				return nil
			})
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			if out != golden[s.name] {
				return fmt.Errorf("%s output differs from cmd/fsexp/testdata/%s.golden", s.name, s.name)
			}
		}
		return nil
	}
	b.layers = func(ctx context.Context, tr *tracer) ([]metric, int64, int64, error) {
		return reproLayers(ctx, tr, o)
	}
	return b, nil
}

// reproLayers times every experiment cell serially, then probes each
// distinct (program, version) of the suite at 12 processors.
func reproLayers(ctx context.Context, tr *tracer, o options) ([]metric, int64, int64, error) {
	cfg, mopt := reproConfig()
	sections := make([]string, len(reproSections))
	for i, s := range reproSections {
		sections[i] = s.name
	}
	e, err := experiments.Collect(cfg, experiments.SectionSet{Sections: sections, Matrix: mopt, Machine: ksr.DefaultConfig()})
	if err != nil {
		return nil, 0, 0, err
	}
	var checked, failed int64
	for k, key := range e.Keys() {
		section, _, _ := strings.Cut(key, "/")
		var runErr error
		ok := false
		tr.do(probeOps/2+int64(k), 0, "cell."+section, func() map[string]int64 {
			_, _, runErr, ok = e.Run(ctx, key)
			return nil
		})
		checked++
		if !ok || runErr != nil {
			failed++
			fmt.Fprintf(os.Stderr, "bench: cell %s: enumerated %v, err %v\n", key, ok, runErr)
		}
	}

	var progs []program
	for _, b := range workload.All() {
		for _, ver := range experiments.Versions(b) {
			src := b.Source(1)
			if ver == experiments.VersionP {
				src = b.ProgrammerSource(1)
			}
			progs = append(progs, program{Name: b.Name + "/" + string(ver), Source: src, Nprocs: 12, Block: 128, Transformed: ver == experiments.VersionC})
		}
	}
	m, c, f, err := probeLayers(ctx, tr, o, progs, true)
	if err != nil {
		return nil, 0, 0, err
	}
	ss := tr.byName()
	cells := 0
	for _, s := range sections {
		n := len(ss["cell."+s])
		cells += n
		m = append(m, metric{Name: "experiments.cell_ms." + s, Value: ss.medianDur("cell."+s, time.Millisecond), Unit: "ms", N: n})
	}
	m = append(m, metric{Name: "experiments.cells", Value: float64(cells), Unit: "count"})
	return m, checked + c, failed + f, nil
}
