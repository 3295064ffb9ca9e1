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
//   - CellRunner is the coordinator side: runJobs hands the keys of
//     the cells the store does not already hold to cfg.Runner and
//     folds the returned (JSON result, span subtree, events) payloads
//     back into results, the store, and the same "pool:<name>" /
//     "job:<key>" span tree a local run records — so a distributed
//     run's manifest is byte-identical to a single-process one,
//     modulo timing.
//   - Each CellResult carries its cell's events (safe-mode
//     degradations, miss-attribution reports) across the process
//     boundary: a worker runs every cell under its own collector
//     (WithEvents), and runJobs appends them to Config.Events exactly
//     as it does for a local cell, so -verify / -diag summaries stay
//     truthful.
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
	"falseshare/internal/faultinject"
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

// CellResult is one executed cell: the result JSON, the span subtree
// the execution recorded and the cell's side events — exactly the
// payload the store keeps. Err is non-nil when the cell failed; Data,
// Spans and Events are then empty.
type CellResult struct {
	Key    string
	Data   json.RawMessage
	Spans  []*obs.Span
	Events CellEvents
	Err    error
	// Retries counts error-retries the runner performed before this
	// outcome (surfaced on the job span like the local pool does).
	Retries int
}

// CellRunner executes cells somewhere else — the distributed fabric's
// coordinator implements it. RunCells must return one CellResult per
// key, index-aligned, regardless of failures (per-cell errors go in
// CellResult.Err); its own error is reserved for whole-run breakdowns
// (no live workers, cancellation before any dispatch).
type CellRunner interface {
	RunCells(ctx context.Context, section string, keys []string) ([]CellResult, error)
}

// errCollected is returned by runJobs in enumeration mode. Drivers'
// partial-failure paths pass it through wrapped; Collect unwraps it.
var errCollected = errors.New("experiments: cells collected, not run")

// CellFunc executes one enumerated cell: the job's result marshaled
// to JSON plus the span subtree recorded while running it. The cell's
// events go to the collector on ctx (WithEvents). It is safe to call
// from any goroutine, once at a time per Enumeration.
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
// keeps), the pool.worker fault point, and panic containment.
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
			if ferr := faultinject.Fire(ctx, "pool.worker", j.Key); ferr != nil {
				return nil, nil, ferr
			}
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

// runRemote is runJobs' coordinator path: resolve stored cells
// locally, hand the rest to cfg.Runner, and reassemble results, spans,
// events, stored payloads and keyed errors so callers — and the
// manifests — cannot tell the cells ran in other processes.
func runRemote[T any](cfg Config, name string, jobs []pool.Job[T], events []CellEvents) ([]T, error) {
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	parent := obs.BeginCtx(ctx, "pool:"+name)
	parent.Set("jobs", int64(len(jobs)))
	workers := pool.Workers(cfg.Workers)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	parent.Set("workers", int64(workers))
	defer parent.End()
	spans := make([]*obs.Span, len(jobs))
	for i, j := range jobs {
		spans[i] = parent.Child("job:" + j.Key)
	}

	results := make([]T, len(jobs))
	errs := make([]error, len(jobs))
	var keys []string
	var idx []int
	for i, j := range jobs {
		if v, p, ok := loadCell[T](ctx, cfg.Store, j.Key, j.Fingerprint); ok {
			results[i] = v
			events[i] = p.Events
			spans[i].Adopt(p.Spans)
			spans[i].End()
			continue
		}
		keys = append(keys, j.Key)
		idx = append(idx, i)
	}

	var rres []CellResult
	var rerr error
	if len(keys) > 0 {
		rres, rerr = cfg.Runner.RunCells(ctx, name, keys)
	}
	if rres == nil {
		rres = make([]CellResult, len(keys))
		for k := range rres {
			cause := rerr
			if cause == nil {
				cause = errors.New("fabric: no result")
			}
			rres[k] = CellResult{Key: keys[k], Err: cause}
		}
	}
	for k, res := range rres {
		i := idx[k]
		if res.Retries > 0 {
			spans[i].Count("retries", int64(res.Retries))
		}
		if res.Err != nil {
			errs[i] = res.Err
			spans[i].Fail(res.Err)
			spans[i].End()
			continue
		}
		if uerr := json.Unmarshal(res.Data, &results[i]); uerr != nil {
			errs[i] = fmt.Errorf("fabric: cell %s returned unreadable result: %w", jobs[i].Key, uerr)
			spans[i].Fail(errs[i])
			spans[i].End()
			continue
		}
		spans[i].Adopt(res.Spans)
		spans[i].End()
		events[i] = res.Events
		storeCell(ctx, cfg.Store, jobs[i].Fingerprint, cellPayload{Key: jobs[i].Key, Data: res.Data, Spans: res.Spans, Events: res.Events})
	}

	var failed []*pool.Error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, &pool.Error{Key: jobs[i].Key, Err: err})
		}
	}
	if failed != nil {
		parent.Set("failed", int64(len(failed)))
		return results, &pool.MultiError{Errors: failed, Jobs: len(jobs)}
	}
	return results, nil
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
