// Distributed execution support: the pieces that let the experiment
// drivers run their cells in other processes without changing what
// they compute.
//
// The contract has three legs:
//
//   - Collect enumerates a run's cells WITHOUT running them — every
//     driver builds its deterministic (program × version × procs ×
//     block × ...) job grid exactly as it would for a local pool run,
//     and the enumeration captures each job as a type-erased CellFunc
//     keyed by the job's pool key. A worker process, handed the same
//     ConfigSpec and SectionSet as the coordinator, reconstructs the
//     identical grid and can therefore execute any cell by key alone.
//   - CellRunner is the coordinator side. With Config.Runner set,
//     runJobs still runs every cell as a pool job under Config.Policy;
//     a cell the store does not hold calls RunCell instead of running
//     here, and its CellResult — result JSON, span subtree, events —
//     is then handled exactly as a replayed cell's: grafted under the
//     same "pool:<name>" / "job:<key>" span tree, appended to
//     Config.Events and stored. So a distributed run's manifest is
//     byte-identical to a single-process one, modulo timing.
//   - Each CellResult carries its cell's events (safe-mode
//     degradations, miss-attribution reports) across the process
//     boundary: a worker runs every cell under its own collector
//     (WithEvents), so -verify / -diag summaries stay truthful.
package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"

	"falseshare/internal/experiments/pool"
	"falseshare/internal/obs"
	"falseshare/internal/sim/ksr"
	"falseshare/internal/workload"
)

// ConfigSpec is the JSON-serializable subset of Config a worker needs
// to rebuild the coordinator's exact job grid. Runtime-only fields
// (context, policy callbacks, store, event log, runner) deliberately
// have no place here: workers run cells, they do not make policy.
type ConfigSpec struct {
	Scale           int     `json:"scale"`
	Fig3Procs       int     `json:"fig3_procs"`
	Fig3ProcsTopopt int     `json:"fig3_procs_topopt"`
	Fig3Blocks      []int64 `json:"fig3_blocks"`
	Table2Blocks    []int64 `json:"table2_blocks"`
	SweepCounts     []int   `json:"sweep_counts"`
	StepBudget      int64   `json:"step_budget,omitempty"`
	Verify          bool    `json:"verify,omitempty"`
	Diag            bool    `json:"diag,omitempty"`
}

// Spec extracts the serializable grid parameters of a Config.
func (cfg Config) Spec() ConfigSpec {
	return ConfigSpec{
		Scale:           cfg.Scale,
		Fig3Procs:       cfg.Fig3Procs,
		Fig3ProcsTopopt: cfg.Fig3ProcsTopopt,
		Fig3Blocks:      cfg.Fig3Blocks,
		Table2Blocks:    cfg.Table2Blocks,
		SweepCounts:     cfg.SweepCounts,
		StepBudget:      cfg.StepBudget,
		Verify:          cfg.Verify,
		Diag:            cfg.Diag,
	}
}

// Config rebuilds a worker-side Config from the spec. Workers execute
// one cell at a time in the calling goroutine.
func (s ConfigSpec) Config() Config {
	return Config{
		Scale:           s.Scale,
		Workers:         1,
		Fig3Procs:       s.Fig3Procs,
		Fig3ProcsTopopt: s.Fig3ProcsTopopt,
		Fig3Blocks:      s.Fig3Blocks,
		Table2Blocks:    s.Table2Blocks,
		SweepCounts:     s.SweepCounts,
		StepBudget:      s.StepBudget,
		Verify:          s.Verify,
		Diag:            s.Diag,
	}
}

// SectionSet names the experiments a distributed run covers, plus the
// per-section parameters that are not part of Config. It must round-
// trip JSON: the coordinator ships it to every worker.
type SectionSet struct {
	// Sections are driver names in fsexp order: "fig3", "aggregates",
	// "table2", "fig4", "table3", "compilecost", "matrix".
	Sections []string      `json:"sections"`
	Matrix   MatrixOptions `json:"matrix,omitempty"`
	Machine  ksr.Config    `json:"machine"`
	// AggBlock is ComputeAggregates' block size (fsexp uses 128).
	AggBlock int64 `json:"agg_block,omitempty"`
	// CompileProcs/CompileReps parameterize CompileCost (fsexp: 12, 5).
	CompileProcs int `json:"compile_procs,omitempty"`
	CompileReps  int `json:"compile_reps,omitempty"`
}

func (s SectionSet) aggBlock() int64 {
	if s.AggBlock <= 0 {
		return 128
	}
	return s.AggBlock
}

func (s SectionSet) compileProcs() int {
	if s.CompileProcs <= 0 {
		return 12
	}
	return s.CompileProcs
}

func (s SectionSet) compileReps() int {
	if s.CompileReps <= 0 {
		return 5
	}
	return s.CompileReps
}

// CellRunner executes cells somewhere else — the distributed fabric's
// coordinator implements it. RunCell returns the cell's payload once
// it has run in another process, or the reason it could not run. An
// error that pool.Transient reports as transient is retried by the
// pool under Config.Policy, exactly like a local cell's.
type CellRunner interface {
	RunCell(ctx context.Context, key string) (CellResult, error)
}

// errCollected is returned by runJobs in enumeration mode. Drivers'
// partial-failure paths pass it through wrapped; Collect unwraps it.
var errCollected = errors.New("experiments: cells collected, not run")

// CellFunc executes one enumerated cell: the job's result marshaled
// to JSON plus the span subtree recorded while running it. The cell's
// events go to the collector on ctx (WithEvents). Cells share nothing
// mutable, so any number may run at once, from any goroutines.
type CellFunc func(ctx context.Context) (json.RawMessage, []*obs.Span, error)

// Enumeration is a run's full cell grid, keyed by pool key. Sections
// may overlap (Table 3 re-enumerates Figure 4's sweep cells under the
// same keys); the first enumeration of a key wins, which is sound
// because equal keys denote equal work.
type Enumeration struct {
	cells map[string]CellFunc
	order []string
}

// Len reports the number of distinct cells enumerated.
func (e *Enumeration) Len() int { return len(e.cells) }

// Keys lists the enumerated cell keys in enumeration order.
func (e *Enumeration) Keys() []string {
	return append([]string(nil), e.order...)
}

// Run executes the cell registered under key. ok is false when the
// key was never enumerated — a coordinator/worker configuration
// mismatch the caller must surface, not mask.
func (e *Enumeration) Run(ctx context.Context, key string) (data json.RawMessage, spans []*obs.Span, err error, ok bool) {
	fn := e.cells[key]
	if fn == nil {
		return nil, nil, nil, false
	}
	data, spans, err = fn(ctx)
	return data, spans, err, true
}

func (e *Enumeration) add(key string, fn CellFunc) {
	if _, dup := e.cells[key]; dup {
		return
	}
	e.cells[key] = fn
	e.order = append(e.order, key)
}

// Collect enumerates every cell the given sections would run under
// cfg, without executing any of them. The drivers run their normal
// enumeration code — same loops, same keys, same order — but each
// pool job is captured instead of executed, so a worker process
// reconstructs exactly the grid its coordinator dispatches from.
func Collect(cfg Config, set SectionSet) (*Enumeration, error) {
	e := &Enumeration{cells: map[string]CellFunc{}}
	cfg.enum = e
	cfg.Runner = nil
	cfg.Store = nil
	cfg.Events = nil
	cfg.Ctx = nil
	for _, s := range set.Sections {
		var err error
		switch s {
		case "fig3":
			_, err = Figure3(cfg)
		case "aggregates":
			_, err = ComputeAggregates(cfg, set.aggBlock())
		case "table2":
			_, err = Table2(cfg)
		case "fig4":
			_, err = Figure4(cfg, set.Machine)
		case "table3":
			_, err = Table3(cfg, set.Machine)
		case "compilecost":
			_, err = CompileCost(cfg, set.compileProcs(), set.compileReps())
		case "matrix":
			_, err = Matrix(cfg, set.Matrix)
		default:
			return nil, fmt.Errorf("experiments: Collect: unknown section %q", s)
		}
		if err != nil && !errors.Is(err, errCollected) {
			return nil, fmt.Errorf("experiments: Collect %s: %w", s, err)
		}
	}
	return e, nil
}

// collectJobs captures a driver's jobs into the enumeration as
// type-erased CellFuncs. The erased runner reproduces what one local
// pool attempt does around a job: a private recorder on the job's
// context (so the captured span subtree is exactly what the store
// keeps) and panic containment. The pool.worker fault point fires in
// the pool that dispatches the cell, not here.
func collectJobs[T any](e *Enumeration, jobs []pool.Job[T]) {
	for _, j := range jobs {
		e.add(j.Key, func(ctx context.Context) (data json.RawMessage, spans []*obs.Span, err error) {
			rec := obs.NewRecorder()
			if base := obs.FromContext(ctx); base != nil {
				rec.Verbose = base.Verbose
				rec.LogW = base.LogW
			}
			ctx = obs.WithRecorder(ctx, rec)
			defer func() {
				spans = rec.Spans()
				if p := recover(); p != nil {
					err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
				}
			}()
			v, rerr := j.Run(ctx)
			if rerr != nil {
				return nil, nil, rerr
			}
			b, merr := json.Marshal(v)
			if merr != nil {
				return nil, nil, fmt.Errorf("experiments: marshal cell %s: %w", j.Key, merr)
			}
			return b, nil, nil
		})
	}
}

// fingerprint assembles a cell's store key material: the section,
// every configuration knob the result or its events depend on, and
// the program source hash. Deterministic by construction — no maps.
func fingerprint(section string, kv ...string) string {
	h := sha256.New()
	h.Write([]byte(section))
	for _, s := range kv {
		h.Write([]byte{0})
		h.Write([]byte(s))
	}
	return section + ":" + hex.EncodeToString(h.Sum(nil))
}

// srcHash hashes a program source for fingerprints.
func srcHash(src string) string {
	h := sha256.Sum256([]byte(src))
	return hex.EncodeToString(h[:])
}

// verSource returns the source text a version compiles from, for
// fingerprint hashing: P uses the hand-optimized program, N and C both
// start from the unoptimized source.
func verSource(b *workload.Benchmark, ver Version, scale int) string {
	if ver == VersionP {
		return b.ProgrammerSource(scale)
	}
	return b.Source(scale)
}
