package experiments

// One store, one event path. Every finished cell — computed here,
// computed in a fabric worker, or replayed from the store — is one
// payload: its result JSON, the span subtree it recorded and its side
// events. A cell records its events into the collector carried
// on its context; runJobs gathers them per job and appends them, in
// submission order, to the caller's Config.Events log. With
// Config.Store set, every fingerprinted cell is looked up before it
// runs and kept after it succeeds, so an interrupted run resumes, and
// any later run over the same cells replays result, spans and events
// exactly.

import (
	"context"
	"encoding/json"

	"falseshare/internal/artifact"
	"falseshare/internal/experiments/pool"
	"falseshare/internal/obs"
)

// CellSchema versions the stored cell format. It is part of every
// store address (alongside the cell fingerprint), so bumping it — on
// any change to what cells compute or how payloads are encoded —
// invalidates every stored cell at once instead of serving stale
// results. The falseshare/bench schema idiom (see BenchSchema).
const CellSchema = "falseshare/cell/v2"

// cellPayload is one finished cell as the store keeps it: the result
// JSON, the span subtree its execution recorded, and its side events
// — the same four things a CellResult and a fabric worker's result
// frame carry, so a replayed or remote cell reconstructs the same
// manifest and the same -verify/-diag summaries as one computed in
// process.
type cellPayload struct {
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

// Empty reports whether there is nothing recorded.
func (ev CellEvents) Empty() bool { return len(ev.Degraded) == 0 && len(ev.Diag) == 0 }

type eventsKey struct{}

// WithEvents returns ctx carrying ev as the event collector of the
// cell run under it: that cell's degradations and attribution reports
// are appended to *ev. Give every cell its own collector — runJobs
// and the fabric worker do.
func WithEvents(ctx context.Context, ev *CellEvents) context.Context {
	return context.WithValue(ctx, eventsKey{}, ev)
}

// cellEvents returns the collector on ctx, or nil when nobody wants
// the cell's events.
func cellEvents(ctx context.Context) *CellEvents {
	ev, _ := ctx.Value(eventsKey{}).(*CellEvents)
	return ev
}

// cellJobs wraps each job for the store and the event log, inside the
// pool attempt. A stored cell returns its result without running,
// replaying its span subtree into the attempt's recorder and its
// events into events[i]. A cell that runs records its events into
// events[i] and, once it succeeds, is stored if it has a fingerprint.
// The pool gives every attempt a private recorder whenever the run
// has one; when it has none, a cell to be stored gets its own, so
// every stored cell carries its span subtree.
func cellJobs[T any](cfg Config, jobs []pool.Job[T], events []CellEvents) []pool.Job[T] {
	if cfg.Store == nil && cfg.Events == nil {
		return jobs
	}
	out := make([]pool.Job[T], len(jobs))
	for i, j := range jobs {
		out[i] = j
		out[i].Run = func(ctx context.Context) (T, error) {
			if v, p, ok := loadCell[T](ctx, cfg.Store, j.Key, j.Fingerprint); ok {
				obs.FromContext(ctx).Adopt(p.Spans)
				events[i] = p.Events
				return v, nil
			}
			keep := cfg.Store != nil && j.Fingerprint != ""
			rec := obs.FromContext(ctx)
			if keep && rec == nil {
				rec = obs.NewRecorder()
				ctx = obs.WithRecorder(ctx, rec)
			}
			var ev CellEvents
			v, err := j.Run(WithEvents(ctx, &ev))
			if err != nil {
				return v, err
			}
			events[i] = ev
			if keep {
				if data, merr := json.Marshal(v); merr != nil {
					obs.LogfCtx(ctx, "store: %s: %v", j.Key, merr)
				} else {
					storeCell(ctx, cfg.Store, j.Fingerprint, cellPayload{Key: j.Key, Data: data, Spans: rec.Spans(), Events: ev})
				}
			}
			return v, nil
		}
	}
	return out
}

// loadCell returns the decoded cell stored under fingerprint fp. A
// payload stored for another key, or whose result no longer decodes
// into T, is a miss: the cost of a stale entry is one recomputation.
func loadCell[T any](ctx context.Context, st *artifact.Store, key, fp string) (v T, p cellPayload, ok bool) {
	raw, hit := st.Get(CellSchema, fp)
	if !hit {
		return v, p, false
	}
	if json.Unmarshal(raw, &p) != nil || p.Key != key || json.Unmarshal(p.Data, &v) != nil {
		obs.LogfCtx(ctx, "store: stale cell %s; recomputing", key)
		var zero T
		return zero, cellPayload{}, false
	}
	return v, p, true
}

// storeCell keeps one successful cell under its fingerprint.
// Unfingerprinted cells (compilecost's timings) are never stored. A
// failed write is logged, not returned: it only costs a future
// recomputation.
func storeCell(ctx context.Context, st *artifact.Store, fp string, p cellPayload) {
	if st == nil || fp == "" {
		return
	}
	b, err := json.Marshal(&p)
	if err == nil {
		err = st.Put(ctx, CellSchema, fp, b)
	}
	if err != nil {
		obs.LogfCtx(ctx, "store: %s: %v", p.Key, err)
	}
}
