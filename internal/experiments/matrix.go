package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"falseshare/internal/experiments/pool"
	"falseshare/internal/sim/attr"
	"falseshare/internal/sim/cache"
	"falseshare/internal/transform"
	"falseshare/internal/workload"
	"falseshare/internal/workload/gen"
)

// MatrixOptions parameterizes the protocol/topology matrix sweep
// (fsexp -matrix): a generated-workload population crossed with every
// selected coherence protocol and machine topology. The zero value
// takes the full default grid: all three protocols × both topologies
// × 60 generated workloads at 8 processors and 64-byte blocks.
type MatrixOptions struct {
	// Workloads is the generated population size (default 60).
	Workloads int
	// Seed seeds gen.Corpus (default 1); one seed, one population.
	Seed int64
	// Procs and Block fix the machine point the grid is swept at
	// (defaults 8 and 64).
	Procs int
	Block int64
	// Protocols and Topologies select the grid axes (defaults: every
	// protocol, every topology).
	Protocols  []cache.Protocol
	Topologies []cache.Topology
	// ScaleMin shrinks each generated program (not the population:
	// the matrix's value is breadth) for CI smoke runs.
	ScaleMin bool
}

func (o MatrixOptions) withDefaults() MatrixOptions {
	if o.Workloads <= 0 {
		o.Workloads = 60
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Procs <= 0 {
		o.Procs = 8
	}
	if o.Block <= 0 {
		o.Block = 64
	}
	if len(o.Protocols) == 0 {
		o.Protocols = cache.Protocols()
	}
	if len(o.Topologies) == 0 {
		o.Topologies = cache.Topologies()
	}
	return o
}

// MatrixStats is the per-version counter record of one matrix cell —
// the full protocol and topology counter set, compact enough that a
// 360-cell manifest stays readable.
type MatrixStats struct {
	Refs           int64   `json:"refs"`
	Misses         int64   `json:"misses"`
	FalseShare     int64   `json:"false_share"`
	TrueShare      int64   `json:"true_share"`
	Upgrades       int64   `json:"upgrades"`
	SilentUpgrades int64   `json:"silent_upgrades,omitempty"`
	Updates        int64   `json:"updates,omitempty"`
	Invalidations  int64   `json:"invalidations"`
	LocalServiced  int64   `json:"local_serviced,omitempty"`
	RemoteServiced int64   `json:"remote_serviced,omitempty"`
	CostCycles     int64   `json:"cost_cycles,omitempty"`
	MissRate       float64 `json:"miss_rate"`
	FSRate         float64 `json:"fs_rate"`
}

// StatsRecord condenses raw simulator statistics into the compact,
// JSON-tagged record the matrix manifests use (rates precomputed) —
// also the daemon's analysis summary shape.
func StatsRecord(st *cache.Stats) MatrixStats {
	return MatrixStats{
		Refs:           st.Refs,
		Misses:         st.Misses(),
		FalseShare:     st.FalseShare,
		TrueShare:      st.TrueShare,
		Upgrades:       st.Upgrades,
		SilentUpgrades: st.SilentUpgrades,
		Updates:        st.Updates,
		Invalidations:  st.Invalidations,
		LocalServiced:  st.LocalServiced,
		RemoteServiced: st.RemoteServiced,
		CostCycles:     st.CostCycles,
		MissRate:       st.MissRate(),
		FSRate:         st.FSRate(),
	}
}

// MatrixCell is one (generated workload × protocol × topology) grid
// cell: the unoptimized (N) and compiler-restructured (C) programs
// measured under that protocol and topology, with the cell's top
// false-sharing objects attributed from the N run.
type MatrixCell struct {
	Key      string `json:"key"` // "matrix/<workload>/<protocol>/<topology>"
	Workload string `json:"workload"`
	Pattern  string `json:"pattern"`
	Protocol string `json:"protocol"`
	Topology string `json:"topology"`
	Procs    int    `json:"procs"`
	Block    int64  `json:"block"`

	N MatrixStats `json:"n"`
	C MatrixStats `json:"c"`
	// TopFS names the unoptimized run's worst false-sharing objects
	// (attribution order, up to three) — the per-cell evidence trail.
	TopFS []string `json:"top_fs,omitempty"`
}

// matrixCacheConfig builds the simulator configuration for one grid
// point: the paper's cache geometry under the cell's protocol and
// topology (two-ring latency defaults are the KSR2 numbers).
func matrixCacheConfig(procs int, block int64, proto cache.Protocol, topo cache.Topology) cache.Config {
	ccfg := cache.DefaultConfig(procs, block)
	ccfg.Protocol = proto
	ccfg.Topology = topo
	return ccfg
}

// TopFSObjects names the attribution report's n worst false-sharing
// objects, worst first (by descending miss count).
func TopFSObjects(rep *attr.Report, n int) []string {
	type of struct {
		name string
		fs   int64
	}
	var objs []of
	for _, o := range rep.Objects {
		if o.FalseShare > 0 {
			objs = append(objs, of{o.Object, o.FalseShare})
		}
	}
	sort.Slice(objs, func(i, j int) bool {
		if objs[i].fs != objs[j].fs {
			return objs[i].fs > objs[j].fs
		}
		return objs[i].name < objs[j].name
	})
	var out []string
	for i := 0; i < len(objs) && i < n; i++ {
		out = append(out, objs[i].name)
	}
	return out
}

// Matrix sweeps the (protocol × topology × generated workload) grid:
// every cell compiles the workload's unoptimized and restructured
// versions, measures both under the cell's protocol and topology, and
// attributes the unoptimized run's false sharing. Cells are
// independent pool jobs keyed "matrix/<workload>/<protocol>/<topology>"
// — stored, resumable, and policy-governed exactly like the figure
// drivers. Safe mode (cfg.Verify) translation-validates every C build
// and records degradations against the cell key.
func Matrix(cfg Config, opt MatrixOptions) ([]MatrixCell, error) {
	opt = opt.withDefaults()
	params := gen.Corpus(opt.Workloads, opt.Seed)
	if opt.ScaleMin {
		for i := range params {
			if params[i].Elems > 128 {
				params[i].Elems = 128
			}
			if params[i].Rounds > 4 {
				params[i].Rounds = 4
			}
		}
	}
	var jobs []pool.Job[MatrixCell]
	for _, p := range params {
		p := p.Clamped()
		bench := gen.Benchmark(p)
		for _, proto := range opt.Protocols {
			for _, topo := range opt.Topologies {
				proto, topo := proto, topo
				key := fmt.Sprintf("matrix/%s/%s/%s", bench.Name, proto, topo)
				jobs = append(jobs, pool.Job[MatrixCell]{
					Key: key,
					Run: func(ctx context.Context) (MatrixCell, error) {
						return cfg.matrixCell(ctx, key, p, bench, proto, topo, opt.Procs, opt.Block)
					},
				})
			}
		}
	}
	cells, err := runJobs(cfg, "matrix", opt, jobs)
	if err == nil {
		return cells, nil
	}
	failed := failedKeys(err)
	var ok []MatrixCell
	for i, j := range jobs {
		if !failed[j.Key] {
			ok = append(ok, cells[i])
		}
	}
	return ok, err
}

// matrixCell runs one grid cell: build N and C, measure both under the
// cell's protocol/topology, attribute the N run's false sharing. The C
// build goes through cfg.buildProgram, so safe mode (cfg.Verify)
// translation-validates it and records degradations under the cell key.
func (cfg Config) matrixCell(ctx context.Context, key string, p gen.Params, bench *workload.Benchmark, proto cache.Protocol, topo cache.Topology, procs int, block int64) (MatrixCell, error) {
	ccfg := matrixCacheConfig(procs, block, proto, topo)
	progN, err := cfg.buildProgram(ctx, key, bench, VersionN, procs, block, transform.Config{})
	if err != nil {
		return MatrixCell{}, fmt.Errorf("matrix %s N: %w", bench.Name, err)
	}
	stN, repN, err := MeasureConfigAttr(ctx, progN, ccfg, cfg.StepBudget)
	if err != nil {
		return MatrixCell{}, fmt.Errorf("matrix %s N run: %w", bench.Name, err)
	}
	progC, err := cfg.buildProgram(ctx, key, bench, VersionC, procs, block, transform.Config{})
	if err != nil {
		return MatrixCell{}, fmt.Errorf("matrix %s C: %w", bench.Name, err)
	}
	stC, err := MeasureConfig(ctx, progC, ccfg, cfg.StepBudget)
	if err != nil {
		return MatrixCell{}, fmt.Errorf("matrix %s C run: %w", bench.Name, err)
	}
	if cfg.Diag {
		recordDiag(ctx, DiagCell{
			Key:     key,
			Program: bench.Name,
			Version: VersionN,
			Block:   block,
			Procs:   procs,
			Report:  repN,
		})
	}
	return MatrixCell{
		Key:      key,
		Workload: bench.Name,
		Pattern:  p.Pattern.String(),
		Protocol: proto.String(),
		Topology: topo.String(),
		Procs:    procs,
		Block:    block,
		N:        StatsRecord(stN),
		C:        StatsRecord(stC),
		TopFS:    TopFSObjects(repN, 3),
	}, nil
}

// RenderMatrix formats the aggregated grid: one row per (protocol ×
// topology) point, miss and false-sharing totals of the unoptimized
// vs restructured populations, plus the two-ring service cost. The
// row order follows the options' axis order, so output is
// deterministic at any worker count.
func RenderMatrix(cells []MatrixCell) string {
	type gk struct{ proto, topo string }
	type agg struct {
		cells               int
		refsN, missN, missC int64
		fsN, fsC            int64
		costN, costC        int64
	}
	aggs := map[gk]*agg{}
	var order []gk
	for _, c := range cells {
		k := gk{c.Protocol, c.Topology}
		a := aggs[k]
		if a == nil {
			a = &agg{}
			aggs[k] = a
			order = append(order, k)
		}
		a.cells++
		a.refsN += c.N.Refs
		a.missN += c.N.Misses
		a.missC += c.C.Misses
		a.fsN += c.N.FalseShare
		a.fsC += c.C.FalseShare
		a.costN += c.N.CostCycles
		a.costC += c.C.CostCycles
	}
	var sb strings.Builder
	sb.WriteString("Protocol/topology matrix: generated workloads, N=unoptimized C=compiler\n")
	fmt.Fprintf(&sb, "%-16s %-9s %5s | %9s %9s | %8s %8s %7s | %11s %11s\n",
		"protocol", "topology", "cells", "missN", "missC", "fsN", "fsC", "fs-cut%", "costN(cyc)", "costC(cyc)")
	for _, k := range order {
		a := aggs[k]
		cut := 0.0
		if a.fsN > 0 {
			cut = 100 * float64(a.fsN-a.fsC) / float64(a.fsN)
		}
		fmt.Fprintf(&sb, "%-16s %-9s %5d | %9d %9d | %8d %8d %7.1f | %11d %11d\n",
			k.proto, k.topo, a.cells, a.missN, a.missC, a.fsN, a.fsC, cut, a.costN, a.costC)
	}
	// Pattern summary: false-sharing reduction by generated sharing
	// pattern, aggregated across the whole grid.
	pat := map[string]*agg{}
	var porder []string
	for _, c := range cells {
		a := pat[c.Pattern]
		if a == nil {
			a = &agg{}
			pat[c.Pattern] = a
			porder = append(porder, c.Pattern)
		}
		a.cells++
		a.fsN += c.N.FalseShare
		a.fsC += c.C.FalseShare
	}
	sort.Strings(porder)
	sb.WriteString("\nBy pattern (all protocols/topologies):\n")
	fmt.Fprintf(&sb, "%-11s %5s | %8s %8s %7s\n", "pattern", "cells", "fsN", "fsC", "fs-cut%")
	for _, p := range porder {
		a := pat[p]
		cut := 0.0
		if a.fsN > 0 {
			cut = 100 * float64(a.fsN-a.fsC) / float64(a.fsN)
		}
		fmt.Fprintf(&sb, "%-11s %5d | %8d %8d %7.1f\n", p, a.cells, a.fsN, a.fsC, cut)
	}
	return sb.String()
}

// CSVMatrix emits the raw cells as CSV (fsexp -matrix -csv).
func CSVMatrix(cells []MatrixCell) string {
	var sb strings.Builder
	sb.WriteString("workload,pattern,protocol,topology,procs,block,refsN,missN,missC,fsN,fsC,upgN,upgC,updatesN,costN,costC,topfs\n")
	for _, c := range cells {
		fmt.Fprintf(&sb, "%s,%s,%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s\n",
			c.Workload, c.Pattern, c.Protocol, c.Topology, c.Procs, c.Block,
			c.N.Refs, c.N.Misses, c.C.Misses, c.N.FalseShare, c.C.FalseShare,
			c.N.Upgrades, c.C.Upgrades, c.N.Updates, c.N.CostCycles, c.C.CostCycles,
			strings.Join(c.TopFS, ";"))
	}
	return sb.String()
}
