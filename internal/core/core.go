// Package core wires the complete restructurer pipeline — the paper's
// primary contribution, end to end:
//
//	parse -> type check -> CFG/call graph
//	     -> stage 1: PDV detection + per-process control flow
//	     -> stage 2: non-concurrency (barrier phase) analysis
//	     -> stage 3: summary side effects with regular sections
//	     -> §3.3 heuristics -> transformations -> layout directives
//
// The result packages both the original and the transformed program,
// each ready for execution on the simulation substrate.
package core

import (
	"context"
	"errors"
	"fmt"

	"falseshare/internal/analysis/nonconc"
	"falseshare/internal/analysis/pdv"
	"falseshare/internal/analysis/procs"
	"falseshare/internal/analysis/sideeffect"
	"falseshare/internal/cfg"
	"falseshare/internal/faultinject"
	"falseshare/internal/lang/ast"
	"falseshare/internal/lang/parser"
	"falseshare/internal/lang/types"
	"falseshare/internal/layout"
	"falseshare/internal/obs"
	"falseshare/internal/transform"
	"falseshare/internal/verify"
)

// Options configures the restructurer.
type Options struct {
	// Nprocs is the process/processor count the analysis assumes and
	// the program will run with.
	Nprocs int
	// BlockSize is the coherence block size transformations target.
	BlockSize int64
	// NoProfiling disables static profiling for ablation (all
	// frequency weights become 1).
	NoProfiling bool
	// RSDLimit overrides the per-object descriptor cap (default 10).
	RSDLimit int
	// Heuristics overrides transformation heuristic settings; the
	// zero value takes the paper defaults (Nprocs and BlockSize are
	// filled in from the options above).
	Heuristics transform.Config
	// Verify enables translation validation: the transformed program
	// is executed against the original on the VM and objects whose
	// final state diverges are degraded back to the identity layout.
	Verify bool
	// VerifyNprocs overrides the validation process count (default:
	// min(4, Nprocs)).
	VerifyNprocs int
	// VerifyBudget overrides the validation step budget per process.
	VerifyBudget int64
	// Exclude lists objects (shared globals, struct names, or
	// "Struct.field" keys) that must never be transformed — their
	// decisions are dropped up front. Chaos tests use it to build
	// byte-identical control runs for degradation assertions.
	Exclude []string
}

func (o Options) defaults() Options {
	if o.Nprocs <= 0 {
		o.Nprocs = 12
	}
	if o.BlockSize <= 0 {
		o.BlockSize = 128
	}
	o.Heuristics.Nprocs = int64(o.Nprocs)
	o.Heuristics.BlockSize = o.BlockSize
	if o.NoProfiling && o.Heuristics.FreqThreshold == 0 {
		// Without static profiling there is no frequency estimate to
		// threshold on: every statically visible access pattern is a
		// candidate. This is the ablation's point — the busy-scalar
		// underestimation disappears, but so does the protection
		// against padding cold data.
		o.Heuristics.FreqThreshold = 1
	}
	return o
}

// analysisConfig builds the side-effect analysis configuration.
func (o Options) analysisConfig() sideeffect.Config {
	return sideeffect.Config{
		Nprocs:          o.Nprocs,
		StaticProfiling: !o.NoProfiling,
		UseTripCounts:   true,
		RSDLimit:        o.RSDLimit,
	}
}

// Program is a checked parc program with a concrete memory layout,
// ready for code generation and execution. A transformed Program may
// share File and Info with its Result's Original; both are read-only.
type Program struct {
	Source string
	File   *ast.File
	Info   *types.Info
	Layout *layout.Layout
	Dirs   *layout.Directives
	// Applied carries the restructuring decisions that produced this
	// program (nil for untransformed compiles). The attribution layer
	// joins per-object miss deltas against it, so the provenance
	// travels with the program even when the Result is discarded.
	Applied []*transform.Decision
}

// Result is the outcome of restructuring one program.
type Result struct {
	Options Options
	// Original is the program compiled without transformations.
	Original *Program
	// Transformed is the compiler-restructured program. When no applied
	// decision rewrites the tree, it shares Original's File and Info
	// (read-only) and has its own Source, Layout and Dirs.
	Transformed *Program
	// Plan holds all decisions (including skipped ones); Applied the
	// decisions that survived verification.
	Plan    *transform.Plan
	Applied []*transform.Decision
	// Summary, PDVs, Phases expose the analysis results for reports
	// and tests.
	Summary *sideeffect.Summary
	PDVs    *pdv.Result
	Phases  *nonconc.Result
	Procs   *procs.Result
	// Degraded lists the objects rolled back to the identity layout
	// (safe mode): their transformation failed to apply, broke the
	// layout, or failed translation validation.
	Degraded []Degradation
	// Verify is the translation-validation report for the final
	// (possibly degraded) transformed program, when Options.Verify.
	Verify *verify.Report
}

// Compile parses, checks and lays out a program without transforming
// it (used for unoptimized and hand-optimized versions).
func Compile(src string, opt Options) (*Program, error) {
	return CompileCtx(context.Background(), src, opt)
}

// CompileCtx is Compile with cooperative cancellation: the context is
// checked between pipeline stages, so a cancelled experiment run stops
// at the next stage boundary rather than finishing the compile.
func CompileCtx(ctx context.Context, src string, opt Options) (*Program, error) {
	opt = opt.defaults()
	sp := obs.BeginCtx(ctx, "compile")
	defer sp.End()

	if err := stageGate(ctx, "core.compile"); err != nil {
		return nil, err
	}
	file, info, err := parseAndCheck(ctx, src)
	if err != nil {
		return nil, err
	}
	st := obs.BeginCtx(ctx, "layout")
	var lay *layout.Layout
	err = guard("layout", func() (e error) {
		lay, e = layout.Compute(info, layout.NewDirectives(opt.BlockSize), int64(opt.Nprocs))
		return e
	})
	st.End()
	if err != nil {
		return nil, fmt.Errorf("layout: %w", err)
	}
	return &Program{Source: src, File: file, Info: info, Layout: lay, Dirs: lay.Dirs}, nil
}

// parseAndCheck runs the two front-end stages under panic containment.
func parseAndCheck(ctx context.Context, src string) (*ast.File, *types.Info, error) {
	st := obs.BeginCtx(ctx, "parse")
	var file *ast.File
	err := guard("parse", func() (e error) {
		file, e = parser.Parse(src)
		return e
	})
	st.End()
	if err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	st = obs.BeginCtx(ctx, "typecheck")
	var info *types.Info
	err = guard("typecheck", func() (e error) {
		info, e = types.Check(file)
		return e
	})
	st.End()
	if err != nil {
		return nil, nil, fmt.Errorf("check: %w", err)
	}
	return file, info, nil
}

// Restructure runs the full pipeline: it analyzes src, decides and
// applies transformations, and returns both program versions.
func Restructure(src string, opt Options) (*Result, error) {
	return RestructureCtx(context.Background(), src, opt)
}

// RestructureCtx is Restructure with cooperative cancellation checked
// between analysis stages.
func RestructureCtx(ctx context.Context, src string, opt Options) (*Result, error) {
	opt = opt.defaults()
	sp := obs.BeginCtx(ctx, "restructure")
	defer sp.End()

	if err := stageGate(ctx, "core.restructure"); err != nil {
		return nil, err
	}
	orig, err := CompileCtx(ctx, src, opt)
	if err != nil {
		return nil, err
	}
	// The analyses only read the tree: they share the original's.
	file, info := orig.File, orig.Info

	st := obs.BeginCtx(ctx, "cfg")
	var prog *cfg.CallGraph
	err = guard("cfg", func() error {
		prog = cfg.BuildProgram(file)
		return nil
	})
	st.End()
	if err != nil {
		return nil, err
	}

	st = obs.BeginCtx(ctx, "pdv")
	var pdvs *pdv.Result
	err = guard("pdv", func() error {
		pdvs = pdv.Analyze(info, int64(opt.Nprocs))
		return nil
	})
	if err == nil {
		st.Set("pdvs", countPDVs(pdvs))
	}
	st.End()
	if err != nil {
		return nil, err
	}

	st = obs.BeginCtx(ctx, "procs")
	var procRes *procs.Result
	err = guard("procs", func() error {
		procRes = procs.Analyze(prog, info, pdvs, opt.Nprocs)
		return nil
	})
	st.End()
	if err != nil {
		return nil, err
	}

	st = obs.BeginCtx(ctx, "nonconc")
	var phases *nonconc.Result
	err = guard("nonconc", func() (e error) {
		phases, e = nonconc.Analyze(prog)
		return e
	})
	if err == nil {
		st.Set("phases", int64(phases.N))
	}
	st.End()
	if err != nil {
		return nil, err
	}

	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	st = obs.BeginCtx(ctx, "sideeffect")
	var summary *sideeffect.Summary
	err = guard("sideeffect", func() error {
		summary = sideeffect.Analyze(info, prog, pdvs, procRes, phases, opt.analysisConfig())
		return nil
	})
	if err == nil {
		st.Set("objects", int64(len(summary.Objects)))
		st.Set("rsd_added", summary.RSD.Added)
		st.Set("rsd_deduped", summary.RSD.Deduped)
		st.Set("rsd_merged", summary.RSD.Merged)
		st.Set("rsd_capped", summary.RSD.Capped)
	}
	st.End()
	if err != nil {
		return nil, err
	}

	st = obs.BeginCtx(ctx, "decide")
	var plan *transform.Plan
	err = guard("decide", func() error {
		plan = transform.Decide(summary, info, opt.Heuristics)
		return nil
	})
	if err == nil {
		st.Set("decisions", int64(len(plan.Decisions)))
		st.Set("skipped", int64(len(plan.Skipped)))
		for _, d := range plan.Decisions {
			st.Count("kind:"+d.Kind.String(), 1)
		}
	}
	st.End()
	if err != nil {
		return nil, err
	}

	res := &Result{
		Options:  opt,
		Original: orig,
		Plan:     plan,
		Summary:  summary,
		PDVs:     pdvs,
		Phases:   phases,
		Procs:    procRes,
	}
	if err := buildTransformed(ctx, src, opt, res); err != nil {
		return nil, err
	}
	sp.Set("degraded", int64(len(res.Degraded)))
	for _, d := range res.Degraded {
		sp.Count("degraded:"+d.Object, 1)
	}
	return res, nil
}

// buildTransformed runs the safe-mode apply loop: apply the plan,
// recheck, lay out, and (optionally) translation-validate. Any
// failure attributable to a decision degrades just that decision and
// the loop retries without it. Only an attempt whose enabled decisions
// rewrite the tree applies them to a FRESH parse (a mid-rewrite panic
// can leave it partially mutated) and rechecks it; the others only
// emit directives and share the original's tree and info. The loop
// terminates because every retry disables at least one decision.
func buildTransformed(ctx context.Context, src string, opt Options, res *Result) error {
	plan := res.Plan
	disabled := map[*transform.Decision]bool{}
	baseSkipped := append([]string(nil), plan.Skipped...)

	// Exclusions are static skips, not degradations.
	for _, d := range plan.Decisions {
		for _, obj := range opt.Exclude {
			if decisionTouches(d, obj, res.Original.Info) {
				disabled[d] = true
				baseSkipped = append(baseSkipped, fmt.Sprintf("%s: excluded by option (-exclude %s)", d, obj))
			}
		}
	}

	degrade := func(d *transform.Decision, stage, reason string) {
		if disabled[d] {
			return // already rolled back on an earlier finding
		}
		disabled[d] = true
		res.Degraded = append(res.Degraded, degradeTargets(d, res.Original.Info, stage, reason)...)
	}

	for attempt := 0; attempt <= len(plan.Decisions); attempt++ {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		plan.Skipped = append([]string(nil), baseSkipped...)
		file, info := res.Original.File, res.Original.Info
		if rewritesTree(plan.Decisions, disabled) {
			var err error
			if file, info, err = parseAndCheck(ctx, src); err != nil {
				return err
			}
		}

		st := obs.BeginCtx(ctx, "apply")
		var out *transform.Outcome
		err := guard("apply", func() error {
			out = transform.ApplySafe(ctx, file, info, plan, opt.BlockSize, int64(opt.Nprocs),
				func(d *transform.Decision) bool { return disabled[d] })
			return nil
		})
		if err == nil {
			st.Set("applied", int64(len(out.Applied)))
		}
		st.End()
		if err != nil {
			return err
		}
		if len(out.Failed) > 0 {
			for _, f := range out.Failed {
				stage := "apply"
				if f.Panicked {
					stage = "apply (panic)"
				}
				degrade(f.Decision, stage, f.Err.Error())
			}
			continue
		}
		applied := out.Applied

		// Re-check a rewritten tree. A fresh tree whose rewrites were all
		// skipped is unchanged, so the original's stands in for it.
		if !rewritesTree(applied, nil) {
			file, info = res.Original.File, res.Original.Info
		} else {
			st = obs.BeginCtx(ctx, "recheck")
			err = guard("recheck", func() (e error) {
				info, e = types.Check(file)
				return e
			})
			st.End()
			if err != nil {
				// Unattributable: degrade everything that was applied.
				for _, d := range applied {
					degrade(d, "recheck", err.Error())
				}
				continue
			}
		}

		st = obs.BeginCtx(ctx, "layout")
		var lay *layout.Layout
		err = guard("layout", func() (e error) {
			lay, e = layout.Compute(info, out.Dirs, int64(opt.Nprocs))
			return e
		})
		st.End()
		if err != nil {
			var ve *layout.VarError
			if errors.As(err, &ve) {
				hit := false
				for _, d := range applied {
					if decisionTouches(d, ve.Name, res.Original.Info) || decisionTouches(d, ve.Name, info) {
						degrade(d, "layout", err.Error())
						hit = true
					}
				}
				if hit {
					continue
				}
			}
			return fmt.Errorf("layout of transformed program: %w", err)
		}

		trans := &Program{Source: ast.Print(file), File: file, Info: info, Layout: lay, Dirs: out.Dirs, Applied: applied}

		if opt.Verify {
			st = obs.BeginCtx(ctx, "verify")
			var rep *verify.Report
			err = guard("verify", func() (e error) {
				rep, e = verify.RunCtx(ctx,
					verify.Side{File: res.Original.File, Info: res.Original.Info, Layout: res.Original.Layout},
					verify.Side{File: trans.File, Info: trans.Info, Layout: trans.Layout},
					applied,
					verify.Options{Nprocs: opt.VerifyNprocs, StepBudget: opt.VerifyBudget},
				)
				return e
			})
			if err == nil {
				st.Set("verify_objects", int64(len(rep.Objects)))
				if rep.OK {
					st.Set("verify_ok", 1)
				}
			}
			st.End()
			if err != nil {
				return err
			}
			if !rep.Skipped && !rep.OK {
				if len(applied) == 0 {
					// No transformations, yet the programs diverge:
					// that is a validator (or VM) bug, not a layout one.
					return &InternalError{Stage: "verify", Value: "divergence with no applied decisions: " + rep.String()}
				}
				attributed := false
				for _, v := range rep.Failing() {
					for _, d := range applied {
						if decisionTouches(d, v.Object, res.Original.Info) {
							reason := v.Reason
							if v.First != nil {
								reason = v.First.String()
							}
							degrade(d, "verify", reason)
							attributed = true
						}
					}
				}
				if !attributed {
					// A whole-program failure (transformed side failed
					// to run) or an unattributable divergence: roll
					// back every applied decision.
					reason := rep.TransErr
					if reason == "" {
						reason = "unattributable divergence"
					}
					for _, d := range applied {
						degrade(d, "verify", reason)
					}
				}
				continue
			}
			res.Verify = rep
		}

		res.Transformed = trans
		res.Applied = applied
		return nil
	}
	return &InternalError{Stage: "apply", Value: "degradation loop did not converge"}
}

// rewritesTree reports whether any decision of ds outside skip
// rewrites the AST.
func rewritesTree(ds []*transform.Decision, skip map[*transform.Decision]bool) bool {
	for _, d := range ds {
		if !skip[d] && d.Kind.RewritesTree() {
			return true
		}
	}
	return false
}

// stageGate is the entry check of a pipeline stage: cancellation
// first, then the stage's fault-injection point.
func stageGate(ctx context.Context, point string) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	return faultinject.Fire(ctx, point, "")
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// countPDVs counts the symbols whose value actually differentiates
// processes (nonzero pid coefficient).
func countPDVs(r *pdv.Result) int64 {
	var n int64
	for s := range r.Values {
		if r.IsPDV(s) {
			n++
		}
	}
	return n
}
