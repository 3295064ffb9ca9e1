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
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"

	"falseshare/internal/experiments/pool"
	"falseshare/internal/obs"
	"falseshare/internal/sim/ksr"
)

// SectionSet names the experiments a distributed run covers, plus the
// per-section parameters that are not part of Config. It must round-
// trip JSON: the coordinator ships it to every worker.
type SectionSet struct {
	// Sections are driver names in fsexp order: "fig3", "aggregates",
	// "table2", "fig4", "table3", "compilecost", "matrix".
	Sections []string      `json:"sections"`
	Matrix   MatrixOptions `json:"matrix,omitempty"`
	Machine  ksr.Config    `json:"machine"`
}

// CellRunner executes cells somewhere else — the distributed fabric's
// coordinator implements it. RunCell returns the cell's payload once
// it has run in another process, or the reason it could not run; the
// pool treats that error under Config.Policy exactly like a local
// cell's.
type CellRunner interface {
	RunCell(ctx context.Context, key string) (CellResult, error)
}

// errCollected is returned by runJobs in enumeration mode. Drivers'
// partial-failure paths return it, wrapped or not, and Collect
// recognizes it with errors.Is.
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
			_, err = ComputeAggregates(cfg)
		case "table2":
			_, err = Table2(cfg)
		case "fig4":
			_, err = Figure4(cfg, set.Machine)
		case "table3":
			_, err = Table3(cfg, set.Machine)
		case "compilecost":
			_, err = CompileCost(cfg)
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
// type-erased CellFuncs. The erased runner reproduces what the local
// pool does around a job: a private recorder on the job's
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
