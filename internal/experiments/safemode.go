package experiments

import (
	"context"
	"sort"

	"falseshare/internal/core"
	"falseshare/internal/transform"
	"falseshare/internal/workload"
)

// DegradeEvent records one experiment cell whose restructuring rolled
// objects back to the identity layout (safe mode): the cell still
// completed, but with fewer transformations than planned.
type DegradeEvent struct {
	// Key is the experiment cell, e.g. "fig3/maxflow/C/b128".
	Key string
	// Objects are the degraded object names (deduplicated, sorted).
	Objects []string
	// Details are the rendered Degradation diagnostics.
	Details []string
}

// DegradedObjects counts the distinct degraded objects across events
// (the "N objects degraded" summary number).
func DegradedObjects(events []DegradeEvent) int {
	seen := map[string]bool{}
	for _, e := range events {
		for _, o := range e.Objects {
			seen[e.Key+"\x00"+o] = true
		}
	}
	return len(seen)
}

// recordDegraded appends the cell's safe-mode rollbacks, if any, to
// the cell's event collector as one event.
func recordDegraded(ctx context.Context, key string, degs []core.Degradation) {
	col := cellEvents(ctx)
	if col == nil || len(degs) == 0 {
		return
	}
	ev := DegradeEvent{Key: key}
	seen := map[string]bool{}
	for _, d := range degs {
		if !seen[d.Object] {
			seen[d.Object] = true
			ev.Objects = append(ev.Objects, d.Object)
		}
		ev.Details = append(ev.Details, d.String())
	}
	sort.Strings(ev.Objects)
	col.Degraded = append(col.Degraded, ev)
}

// buildProgram is the verification-aware builder behind every
// experiment cell. Without cfg.Verify it is ProgramCtx; with it, C
// versions run the restructurer in safe mode — the transformed
// program is translation-validated against the original, degraded
// objects are recorded against the cell key in the cell's event
// collector (WithEvents), and the (possibly partially rolled back)
// program still completes the cell.
func (cfg Config) buildProgram(ctx context.Context, key string, b *workload.Benchmark, ver Version, nprocs int, block int64, heur transform.Config) (*core.Program, error) {
	if ver != VersionC || !cfg.Verify {
		return ProgramCtx(ctx, b, ver, nprocs, cfg.Scale, block, heur)
	}
	opt := core.Options{Nprocs: nprocs, BlockSize: block, Heuristics: heur, Verify: true}
	res, err := core.RestructureCtx(ctx, b.Source(cfg.Scale), opt)
	if err != nil {
		return nil, err
	}
	recordDegraded(ctx, key, res.Degraded)
	return res.Transformed, nil
}
