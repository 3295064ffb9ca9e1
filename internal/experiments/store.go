package experiments

// One store, one event path. Every finished cell — computed or
// replayed from the store — is one payload: its result JSON, the span
// subtree it recorded and its side events. A cell records its events into the collector carried
// on its context; runJobs gathers them per job and appends them, in
// submission order, to the caller's Config.Events log. With
// Config.Store set, every cell is looked up by its address before it
// runs and kept after it succeeds, so an interrupted run resumes, and
// any later run of the same build over the same cells replays result,
// spans and events exactly.

import (
	"context"
	"encoding/json"
	"fmt"

	"falseshare/internal/artifact"
	"falseshare/internal/experiments/pool"
	"falseshare/internal/obs"
)

// cellSchema is the artifact schema of stored cells. It carries no
// version: the store serves an entry only to the build that wrote it.
const cellSchema = "falseshare/cell"

// cellAddress is the one store key of a cell: its pool key, the run's
// spec minus the grid lists (the key already names the grid point),
// and the section's own parameters. Sections that never attribute
// misses clear Diag first. All else a cell depends on — the
// sources, the restructurer, the simulators — is code, which the store
// covers by keying every entry to the build that computed it.
func cellAddress(cfg Config, key string, params any) string {
	spec := cfg.ConfigSpec
	spec.Fig3Blocks, spec.Table2Blocks, spec.SweepCounts = nil, nil, nil
	b, err := json.Marshal(struct {
		Key    string     `json:"key"`
		Spec   ConfigSpec `json:"spec"`
		Params any        `json:"params,omitempty"`
	}{key, spec, params})
	if err != nil {
		// Section parameters are plain structs of numbers and lists.
		panic(fmt.Sprintf("experiments: cell %s: %v", key, err))
	}
	return string(b)
}

// CellResult is one finished cell: the result JSON, the span subtree
// its execution recorded, and its side events. It is the payload the
// store keeps, so a replayed cell reconstructs the same manifest and
// the same -verify/-diag summaries as one computed afresh.
type CellResult struct {
	Key    string          `json:"key"`
	Data   json.RawMessage `json:"data"`
	Spans  []*obs.Span     `json:"spans,omitempty"`
	Events CellEvents      `json:"events"`
}

// CellEvents are the records a cell produces besides its result:
// safe-mode degradations (-verify) and miss-attribution reports
// (-diag).
type CellEvents struct {
	Degraded []DegradeEvent `json:"degraded,omitempty"`
	Diag     []DiagCell     `json:"diag,omitempty"`
}

type eventsKey struct{}

// WithEvents returns ctx carrying ev as the event collector of the
// cell run under it: that cell's degradations and attribution reports
// are appended to *ev. Give every cell its own collector, as runJobs
// does.
func WithEvents(ctx context.Context, ev *CellEvents) context.Context {
	return context.WithValue(ctx, eventsKey{}, ev)
}

// cellEvents returns the collector on ctx, or nil when nobody wants
// the cell's events.
func cellEvents(ctx context.Context) *CellEvents {
	ev, _ := ctx.Value(eventsKey{}).(*CellEvents)
	return ev
}

// cellJobs wraps each job for the store and the event log, inside
// the pool's run of the job. A stored cell returns its result without
// running, replaying its span subtree into the job's recorder and its
// events into events[i]. Any other cell runs, records its events into
// events[i] and, once it succeeds, is stored. The pool gives every job
// a private recorder whenever the run has one; when it has none, a
// cell to be stored gets its own, so every stored cell carries its
// span subtree.
func cellJobs[T any](cfg Config, params any, jobs []pool.Job[T], events []CellEvents) []pool.Job[T] {
	if cfg.Store == nil && cfg.Events == nil {
		return jobs
	}
	out := make([]pool.Job[T], len(jobs))
	for i, j := range jobs {
		var addr string
		if cfg.Store != nil {
			addr = cellAddress(cfg, j.Key, params)
		}
		out[i] = j
		out[i].Run = func(ctx context.Context) (T, error) {
			if v, p, ok := loadCell[T](ctx, cfg.Store, j.Key, addr); ok {
				obs.FromContext(ctx).Adopt(p.Spans)
				events[i] = p.Events
				return v, nil
			}
			rec := obs.FromContext(ctx)
			if cfg.Store != nil && rec == nil {
				rec = obs.NewRecorder()
				ctx = obs.WithRecorder(ctx, rec)
			}
			var ev CellEvents
			v, err := j.Run(WithEvents(ctx, &ev))
			if err != nil {
				return v, err
			}
			events[i] = ev
			if cfg.Store != nil {
				if data, merr := json.Marshal(v); merr != nil {
					obs.LogfCtx(ctx, "store: %s: %v", j.Key, merr)
				} else {
					storeCell(ctx, cfg.Store, addr, CellResult{Key: j.Key, Data: data, Spans: rec.Spans(), Events: ev})
				}
			}
			return v, nil
		}
	}
	return out
}

// loadCell returns the decoded cell stored at address addr. A payload
// stored for another key, whose result does not decode into T, or that
// the replay cannot use (see replayable) is a miss: the cost of a bad
// entry is one recomputation, which overwrites it.
func loadCell[T any](ctx context.Context, st *artifact.Store, key, addr string) (v T, p CellResult, ok bool) {
	raw, hit := st.Get(cellSchema, addr)
	if !hit {
		return v, p, false
	}
	if json.Unmarshal(raw, &p) != nil || p.Key != key || json.Unmarshal(p.Data, &v) != nil || !p.replayable() {
		obs.LogfCtx(ctx, "store: stale cell %s; recomputing", key)
		var zero T
		return zero, CellResult{}, false
	}
	return v, p, true
}

// replayable reports whether every span of p's tree is present and
// every attribution event carries its report. The store validates an
// entry's address, not its payload, and a replay grafts the spans into
// the run's tree and renders the reports.
func (p *CellResult) replayable() bool {
	for _, d := range p.Events.Diag {
		if d.Report == nil {
			return false
		}
	}
	return spansPresent(p.Spans)
}

func spansPresent(spans []*obs.Span) bool {
	for _, s := range spans {
		if s == nil || !spansPresent(s.Children) {
			return false
		}
	}
	return true
}

// storeCell keeps one successful cell at its address. A failed write
// is logged, not returned: it only costs a future recomputation.
func storeCell(ctx context.Context, st *artifact.Store, addr string, p CellResult) {
	if st == nil {
		return
	}
	b, err := json.Marshal(&p)
	if err == nil {
		err = st.Put(ctx, cellSchema, addr, b)
	}
	if err != nil {
		obs.LogfCtx(ctx, "store: %s: %v", p.Key, err)
	}
}
