// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 5): Figure 3 (miss-rate bars), Table 2
// (false-sharing reduction by transformation), Figure 4 (speedup
// curves), Table 3 (maximum speedups), and the Section 1/5 aggregate
// claims. Each experiment builds its programs through the restructurer
// (never from hand-written "compiler" versions), executes them on the
// VM, and measures them with the cache simulator and the KSR2 time
// model.
package experiments

import (
	"context"
	"fmt"
	"runtime"

	"falseshare/internal/artifact"
	"falseshare/internal/core"
	"falseshare/internal/experiments/pool"
	"falseshare/internal/obs"
	"falseshare/internal/sim/attr"
	"falseshare/internal/sim/cache"
	"falseshare/internal/sim/ksr"
	"falseshare/internal/sim/trace"
	"falseshare/internal/transform"
	"falseshare/internal/vm"
	"falseshare/internal/workload"
)

// Version identifies a program version as in the paper's Table 1.
type Version string

const (
	// VersionN is the unoptimized program.
	VersionN Version = "N"
	// VersionC is the compiler-restructured program.
	VersionC Version = "C"
	// VersionP is the hand-optimized program.
	VersionP Version = "P"
)

// ConfigSpec is the part of Config that decides what the cells
// compute. It is plain data: the cell store addresses each cell by it
// (see cellAddress).
type ConfigSpec struct {
	// Scale multiplies workload sizes (1 = paper-shaped experiment
	// runs; tests use smaller).
	Scale int `json:"scale"`
	// Fig3Blocks are the block sizes shown in Figure 3.
	Fig3Blocks []int64 `json:"fig3_blocks,omitempty"`
	// Table2Blocks are the block sizes Table 2 averages over.
	Table2Blocks []int64 `json:"table2_blocks,omitempty"`
	// SweepCounts are the processor counts for Figure 4 / Table 3.
	SweepCounts []int `json:"sweep_counts,omitempty"`
	// StepBudget caps per-process VM instructions per execution
	// (0: the VM default of 1e9), so runaway programs fail instead of
	// hanging a job forever.
	StepBudget int64 `json:"step_budget,omitempty"`
	// Verify enables safe mode for every compiler-restructured cell:
	// each C program is translation-validated against its original,
	// and objects that fail validation (or whose transformation fails
	// to apply) are degraded to the identity layout and recorded as a
	// DegradeEvent in Events. A cell replayed from Store replays its
	// events with it.
	Verify bool `json:"verify,omitempty"`
	// Diag enables miss attribution for the Figure 3, Table 2 and
	// matrix cells: each measured simulation carries an
	// attr.Collector, and the per-object reports are recorded against
	// the cell key as DiagCells in Events — see RenderDiag. Like
	// Verify's events, a replayed cell's reports come back from Store.
	// The other sections clear it, so it enters only these three
	// sections' cell addresses.
	Diag bool `json:"diag,omitempty"`
}

// Config parameterizes the experiment harness: the spec of what to
// compute, and how this process runs it.
type Config struct {
	ConfigSpec
	// Workers bounds the experiment pool's concurrency (fsexp -j).
	// Zero or negative means runtime.GOMAXPROCS; 1 runs every job
	// serially in submission order on the calling goroutine. Results
	// are identical at any worker count — the jobs share nothing but
	// read-only workload sources.
	Workers int

	// Ctx, when non-nil, cancels the whole run: jobs in flight observe
	// the cancellation through their context, unstarted jobs are
	// skipped. The CLIs route Ctrl-C through here. A measurement memo
	// on it (WithMeasureMemo) is shared by every fan-out run under it.
	Ctx context.Context
	// Policy governs the experiment pool's failure handling: fail-fast
	// vs keep-going and per-job deadlines. The zero value runs every
	// job with no deadline (the historical behavior).
	Policy pool.Policy
	// Store, when non-nil, keeps every successful cell (fsexp -cache):
	// a cell this build already stored returns its result, span
	// subtree and events without running, so an interrupted run
	// resumes and a later run over the same cells dedups through it.
	Store *artifact.Store
	// Events, when non-nil, receives every successful cell's side
	// events, appended in job submission order after each fan-out —
	// whether the cell ran or was replayed from Store. The caller owns
	// it and reads it per section.
	Events *CellEvents

	// enum, when non-nil, switches runJobs into enumeration mode:
	// jobs are captured into the grid instead of executed. Set only
	// by Collect.
	enum *Enumeration
}

// DefaultConfig returns the paper's experimental setup.
func DefaultConfig() Config {
	return Config{ConfigSpec: ConfigSpec{
		Scale:        1,
		Fig3Blocks:   []int64{16, 128},
		Table2Blocks: []int64{8, 16, 32, 64, 128, 256},
		SweepCounts:  []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 40, 48, 56},
	}}
}

// fig3Procs is the processor count of the Figure 3 machine, on which
// Figure 3, Table 2 and the aggregates run: 12 as in the paper, except
// Topopt, which ran on 9.
func fig3Procs(b *workload.Benchmark) int {
	if b.Name == "topopt" {
		return 9
	}
	return 12
}

// ProgramCtx builds one version of a benchmark, compiled and laid out
// for the given processor count and block size, with cooperative
// cancellation through the compiler pipeline. The C version is
// produced by the restructurer; heur tweaks its heuristics (ablations).
func ProgramCtx(ctx context.Context, b *workload.Benchmark, ver Version, nprocs int, scale int, block int64, heur transform.Config) (*core.Program, error) {
	opt := core.Options{Nprocs: nprocs, BlockSize: block, Heuristics: heur}
	switch ver {
	case VersionN:
		if !b.HasN {
			return nil, fmt.Errorf("%s has no unoptimized version", b.Name)
		}
		return core.CompileCtx(ctx, b.Source(scale), opt)
	case VersionP:
		src := b.ProgrammerSource(scale)
		if src == "" {
			return nil, fmt.Errorf("%s has no programmer version", b.Name)
		}
		return core.CompileCtx(ctx, src, opt)
	case VersionC:
		res, err := core.RestructureCtx(ctx, b.Source(scale), opt)
		if err != nil {
			return nil, err
		}
		return res.Transformed, nil
	}
	return nil, fmt.Errorf("unknown version %q", ver)
}

// runJobs routes every experiment's fan-out through the configured
// context, failure policy, store and event log: cells this
// build already stored in cfg.Store return their stored results
// without running, fresh successes are stored as they finish, and
// every successful cell's events are appended to cfg.Events in
// submission order. params are the section's own parameters beyond
// cfg (the KSR machine, the matrix options, or nil); they are part of
// every cell's store address. Cells measure through the memo on
// cfg.Ctx (see WithMeasureMemo), or else through one that lives as
// long as this fan-out, so cells that execute the same program under
// the same configuration run it once.
//
// With cfg.enum set (Collect) the jobs are captured, not run, and the
// driver sees zero-valued results behind an errCollected sentinel.
func runJobs[T any](cfg Config, name string, params any, jobs []pool.Job[T]) ([]T, error) {
	if cfg.enum != nil {
		collectJobs(cfg.enum, jobs)
		return make([]T, len(jobs)), errCollected
	}
	ctx := cfg.Ctx
	if memoFrom(ctx) == nil {
		ctx = WithMeasureMemo(ctx)
	}
	events := make([]CellEvents, len(jobs))
	results, err := pool.RunPolicy(ctx, name, cfg.Workers, cfg.Policy, cellJobs(cfg, params, jobs, events))
	if cfg.Events != nil {
		for _, ev := range events {
			cfg.Events.Degraded = append(cfg.Events.Degraded, ev.Degraded...)
			cfg.Events.Diag = append(cfg.Events.Diag, ev.Diag...)
		}
	}
	return results, err
}

// failedKeys is the set of cell keys a runJobs error names, for
// drivers that must know which result slots are valid.
func failedKeys(err error) map[string]bool {
	failures := pool.Failures(err)
	if len(failures) == 0 {
		return nil
	}
	set := make(map[string]bool, len(failures))
	for _, f := range failures {
		set[f.Key] = true
	}
	return set
}

// Baseline returns the version speedups are measured against: N when
// it exists, else P (the original program).
func Baseline(b *workload.Benchmark) Version {
	if b.HasN {
		return VersionN
	}
	return VersionP
}

// Versions lists the versions available for a benchmark, in N, C, P
// order.
func Versions(b *workload.Benchmark) []Version {
	var out []Version
	if b.HasN {
		out = append(out, VersionN)
	}
	out = append(out, VersionC)
	if b.HasP {
		out = append(out, VersionP)
	}
	return out
}

// MeasureConfig executes prog once and simulates its trace under one
// cache configuration, the simulator fed inline on the VM's goroutine.
// NumProcs is taken from the program's layout; ctx cancels the VM
// mid-run and budget caps per-process instructions (0: the VM
// default). The statistics are a copy detached from the simulator.
// Under a measurement memo (WithMeasureMemo) a program already
// measured under the same configuration and budget is not run again:
// the kept statistics come back, shared and read-only. Every
// experiment cell, fsc -diag and fsd measure this way, some with
// attribution (MeasureConfigAttr) or the KSR clock (sweep points).
func MeasureConfig(ctx context.Context, prog *core.Program, ccfg cache.Config, budget int64) (*cache.Stats, error) {
	r, err := measureConfig(ctx, prog, ccfg, budget, measurePlain)
	return r.stats, err
}

// MeasureConfigAttr is MeasureConfig with miss attribution: the
// simulator carries a collector over an address map fed by the live
// machine. Attribution never changes the statistics. It always runs:
// the report maps addresses through prog's own layout, so it is never
// shared.
func MeasureConfigAttr(ctx context.Context, prog *core.Program, ccfg cache.Config, budget int64) (*cache.Stats, *attr.Report, error) {
	r, err := measureConfig(ctx, prog, ccfg, budget, measureAttributed)
	return r.stats, r.report, err
}

// measureKind is what a measurement yields beyond its statistics.
// Kinds never share a memo entry. A Figure 4 sweep point is timed: it
// measures under the KSR machine's caches, with ksr.Clock on the
// machine's barriers.
type measureKind int

const (
	measurePlain      measureKind = iota // the statistics alone
	measureAttributed                    // and a miss attribution report; never shared
	measureTimed                         // and the run's KSR time
)

// measurement is what one run yields: its statistics and, by kind, an
// attribution report or the KSR time.
type measurement struct {
	stats  *cache.Stats
	report *attr.Report
	time   *ksr.Result
}

func measureConfig(ctx context.Context, prog *core.Program, ccfg cache.Config, budget int64, kind measureKind) (measurement, error) {
	sp := obs.BeginCtx(ctx, "measure")
	defer sp.End()
	nprocs := int(prog.Layout.Nprocs)
	ccfg.NumProcs = nprocs
	bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, nprocs)
	if err != nil {
		return measurement{}, err
	}
	// run executes bc on ctx and simulates its references under ccfg
	// inline, the one delivery on which the clock reads exact counters
	// at each barrier.
	run := func(ctx context.Context) (measurement, error) {
		m := vm.New(bc)
		m.SetContext(ctx)
		if budget > 0 {
			m.MaxInstrs = budget
		}
		var amap *attr.Map
		if kind == measureAttributed {
			amap = attr.NewMap(prog.Layout)
			amap.AttachMachine(m)
		}
		var stop func() *ksr.Result
		stats, reports, err := SimulateStream(ctx, sp, func(s trace.Sink, live []*cache.Stats) error {
			if kind == measureTimed {
				stop = ksr.Clock(m, live[0])
			}
			return m.Run(s)
		}, []cache.Config{ccfg}, amap)
		if err != nil {
			return measurement{}, err
		}
		r := measurement{stats: stats[0]}
		if amap != nil {
			r.report = reports[0]
		}
		if stop != nil {
			r.time = stop()
		}
		return r, nil
	}
	if m := memoFrom(ctx); m != nil && kind != measureAttributed {
		return share(ctx, m, programKey(bc, kind, ccfg, budget), sp.Adopt, run)
	}
	return run(ctx)
}

// SimulateStream feeds the references stream delivers to one cache
// simulator per configuration, and to every extra sink (a trace
// writer), and returns each simulator's statistics, detached from it.
// stream is the VM's Run or a stored trace's ForEach; live are the
// simulators' own statistics, in configuration order, for a stream
// that reads them while it runs. With amap, each simulator carries a
// miss collector over it, and the reports come back in configuration
// order once the stream has ended and amap has named its heap owners.
//
// The delivery follows from the sinks. One sink is the stream's sink
// itself, as for every experiment cell. Several sinks without
// attribution, on more than one CPU, each run on their own goroutine
// behind a trace.ParTee, each simulator with a "sim:b<block>" span
// under sp; live then lags the stream until it ends. Otherwise a
// trace.Tee feeds them in turn on the stream's goroutine: attribution
// resolves every miss through amap, which is not safe for concurrent
// use. The results are the same either way.
// A verbose recorder on ctx gets each simulator's progress as obs
// metrics.
func SimulateStream(ctx context.Context, sp *obs.Span, stream func(sink trace.Sink, live []*cache.Stats) error, cfgs []cache.Config, amap *attr.Map, extra ...trace.Sink) ([]*cache.Stats, []*attr.Report, error) {
	rec := obs.FromContext(ctx)
	live := make([]*cache.Stats, len(cfgs))
	cols := make([]*attr.Collector, 0, len(cfgs))
	sinks := make([]trace.Sink, 0, len(cfgs)+len(extra))
	for i, c := range cfgs {
		sim, err := cache.New(c)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: %w", err)
		}
		if amap != nil {
			col := attr.NewCollector(amap, c.BlockSize)
			sim.SetAttributor(col)
			cols = append(cols, col)
		}
		installMetrics(rec, sim)
		live[i] = sim.Stats()
		sinks = append(sinks, func(r vm.Ref) { sim.Access(r.Proc, r.Addr, int64(r.Size), r.Write) })
	}
	sinks = append(sinks, extra...)

	finish := func() error { return nil }
	var sink trace.Sink
	switch {
	case len(sinks) == 1:
		sink = sinks[0]
	case amap == nil && runtime.GOMAXPROCS(0) > 1:
		pt := trace.NewParTee(0, sinks...)
		for i, c := range cfgs {
			pt.SetSpan(i, sp.Child(fmt.Sprintf("sim:b%d", c.BlockSize)))
		}
		sink, finish = pt.Sink(), pt.Close
	default:
		sink = trace.Tee(sinks...)
	}
	err := stream(sink, live)
	if ferr := finish(); err == nil {
		err = ferr
	}
	if err != nil {
		return nil, nil, err
	}

	stats := make([]*cache.Stats, len(live))
	for i, st := range live {
		st := *st
		stats[i] = &st
	}
	if amap == nil {
		return stats, nil, nil
	}
	amap.ResolveOwners()
	reports := make([]*attr.Report, len(cols))
	for i, col := range cols {
		reports[i] = col.Report(cfgs[i].NumProcs)
	}
	return stats, reports, nil
}

// metricsEvery is the streaming-metrics period in block references:
// long simulations emit one obs metrics snapshot per interval so
// multi-minute sweeps show live progress instead of going dark. The
// paper configuration's longest cells deliver under 2M references.
const metricsEvery = 1_000_000

// installMetrics wires the simulator's sampler to the progress
// stream of rec. A recorder that is not verbose prints no metrics, so
// it gets no sampler either, and the simulator hot path keeps its
// zero-cost disabled branch.
func installMetrics(rec *obs.Recorder, sim *cache.Sim) {
	if rec == nil || !rec.Verbose {
		return
	}
	src := fmt.Sprintf("sim:b%d", sim.Stats().Config.BlockSize)
	sim.SetSampler(metricsEvery, func(st *cache.Stats) {
		rec.EmitMetrics(src, map[string]int64{
			"refs":   st.Refs,
			"misses": st.Misses(),
			"false":  st.FalseShare,
			"true":   st.TrueShare,
		})
	})
}
