// Package obs is the pipeline observability layer: hierarchical timed
// spans with typed counters, recorders that collect them, and JSON
// run reports. The pipeline, the VM and the simulators open spans on
// the context they are given (BeginCtx); the CLIs export the result as
// a run manifest (-report) and stream progress to stderr (-v).
//
// A span records into the recorder on its context (WithRecorder), else
// into the process-wide one (Install), else nowhere. The experiment
// pool and fsd give each job and request a private recorder on its
// context, so concurrent span trees never interleave. Spans nest under
// their recorder's innermost open span; no context is made per span.
// With no recorder, BeginCtx is a context lookup and an atomic load
// returning a nil *Span, whose methods are all nil-safe no-ops. Begin
// and BindGoroutine act on the installed recorder only; they are kept
// for bench/layers.go alone.
package obs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed region of work. Spans nest: Begin while another
// span is open attaches the new span as its child.
type Span struct {
	Name     string
	Started  time.Time
	Wall     time.Duration
	Counters map[string]int64
	Children []*Span

	rec      *Recorder
	depth    int
	open     bool
	detached bool
}

// Recorder accumulates a tree of spans for one run. All methods are
// safe for concurrent use; spans from concurrent goroutines nest under
// whichever span is innermost at the time, so a sequential pipeline
// yields the natural stage tree.
type Recorder struct {
	// Verbose streams span completions (and Logf output) to LogW.
	Verbose bool
	// LogW is the progress stream (default os.Stderr).
	LogW io.Writer

	mu      sync.Mutex
	root    *Span
	stack   []*Span
	started time.Time
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	now := time.Now()
	root := &Span{Name: "run", Started: now, open: true}
	r := &Recorder{root: root, stack: []*Span{root}, started: now}
	root.rec = r
	return r
}

// installed is the process-wide recorder (nil when observability is
// off).
var installed atomic.Pointer[Recorder]

// Install makes r the process-wide recorder (nil uninstalls).
func Install(r *Recorder) { installed.Store(r) }

// Default returns the process-wide recorder, or nil. It ignores
// context recorders; use FromContext for the recorder BeginCtx picks.
func Default() *Recorder { return installed.Load() }

type recorderKey struct{}

// WithRecorder returns ctx carrying r: spans and log lines begun on it,
// or on any context derived from it, record into r instead of the
// installed recorder (a nil r records nothing). The experiment pool
// and fsd give each job and request its own recorder this way, so
// concurrent span trees never interleave. A nil ctx is taken as
// context.Background().
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, recorderKey{}, r)
}

// FromContext returns the recorder BeginCtx records into: the one
// WithRecorder put on ctx, else the installed one, else nil. ctx may
// be nil.
func FromContext(ctx context.Context) *Recorder {
	if ctx != nil {
		if r, ok := ctx.Value(recorderKey{}).(*Recorder); ok {
			return r
		}
	}
	return installed.Load()
}

// BeginCtx opens a span on ctx's recorder (see FromContext), nested
// under its innermost open span. It returns nil, a no-op span, when
// there is no recorder.
func BeginCtx(ctx context.Context, name string) *Span {
	return FromContext(ctx).Begin(name)
}

// LogfCtx writes a progress line to ctx's recorder when it is verbose.
func LogfCtx(ctx context.Context, format string, args ...any) {
	FromContext(ctx).Logf(format, args...)
}

// Begin opens a span on the installed recorder only. It is kept for
// bench/layers.go only; the next benchmark change deletes it.
func Begin(name string) *Span { return installed.Load().Begin(name) }

// BindGoroutine installs r process-wide and returns the recorder it
// replaces, which is enough for the benchmark probe's serial use. It
// is kept for bench/layers.go only; the next benchmark change deletes
// it.
func BindGoroutine(r *Recorder) *Recorder { return installed.Swap(r) }

// Begin opens a span nested under the innermost open span.
func (r *Recorder) Begin(name string) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := r.stack[len(r.stack)-1]
	s := &Span{Name: name, Started: time.Now(), rec: r, depth: len(r.stack), open: true}
	parent.Children = append(parent.Children, s)
	r.stack = append(r.stack, s)
	return s
}

// Logf writes one progress line to LogW when the recorder is verbose.
func (r *Recorder) Logf(format string, args ...any) {
	if r == nil || !r.Verbose {
		return
	}
	fmt.Fprintf(r.logw(), "obs: "+format+"\n", args...)
}

func (r *Recorder) logw() io.Writer {
	if r.LogW != nil {
		return r.LogW
	}
	return os.Stderr
}

// End closes the span, recording its wall time. Any child spans still
// open are closed with it. nil-safe.
func (s *Span) End() {
	if s == nil || s.rec == nil {
		return
	}
	r := s.rec
	r.mu.Lock()
	if !s.open {
		r.mu.Unlock()
		return
	}
	if s.detached {
		// Detached spans live outside the recorder stack (they belong
		// to a concurrent worker); just close them in place.
		s.open = false
		if s.Wall == 0 {
			s.Wall = time.Since(s.Started)
		}
		verbose := r.Verbose
		r.mu.Unlock()
		if verbose {
			fmt.Fprintf(r.logw(), "obs: %s%-18s %10s%s\n",
				strings.Repeat("  ", s.depth-1), s.Name, s.Wall.Round(time.Microsecond), s.counterSuffix())
		}
		return
	}
	now := time.Now()
	// Pop the stack down to and including this span.
	for i := len(r.stack) - 1; i >= 1; i-- {
		top := r.stack[i]
		top.open = false
		if top.Wall == 0 {
			top.Wall = now.Sub(top.Started)
		}
		r.stack = r.stack[:i]
		if top == s {
			break
		}
	}
	verbose := r.Verbose
	r.mu.Unlock()
	if verbose {
		fmt.Fprintf(r.logw(), "obs: %s%-18s %10s%s\n",
			strings.Repeat("  ", s.depth-1), s.Name, s.Wall.Round(time.Microsecond), s.counterSuffix())
	}
}

func (s *Span) counterSuffix() string {
	if len(s.Counters) == 0 {
		return ""
	}
	keys := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, " %s=%d", k, s.Counters[k])
	}
	return sb.String()
}

// Child opens a span attached directly under s, bypassing the
// recorder's stack: concurrent workers each get their own child so
// their spans never interleave with (or capture) each other's.
// Children attach in call order, so creating them before fan-out
// yields a deterministic tree regardless of completion order.
// nil-safe; Child of a snapshot span returns nil.
func (s *Span) Child(name string) *Span {
	if s == nil || s.rec == nil {
		return nil
	}
	r := s.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	c := &Span{Name: name, Started: time.Now(), rec: r, depth: s.depth + 1, open: true, detached: true}
	s.Children = append(s.Children, c)
	return c
}

// Adopt attaches snapshot spans (e.g. another recorder's Spans())
// under s. The experiment pool uses it to graft each job's privately
// recorded tree into the parent run's manifest. nil-safe.
func (s *Span) Adopt(children []*Span) {
	if s == nil || len(children) == 0 {
		return
	}
	if r := s.rec; r != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	s.Children = append(s.Children, children...)
}

// Fail annotates the span with a failure class counter: "cancelled"
// for context cancellation, "timeout" for a deadline, "error" for
// anything else. The experiment pool stamps job spans this way so
// manifests show which cells failed and how. nil-safe; nil err is a
// no-op.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	switch {
	case errors.Is(err, context.Canceled):
		s.Set("cancelled", 1)
	case errors.Is(err, context.DeadlineExceeded):
		s.Set("timeout", 1)
	default:
		s.Set("error", 1)
	}
}

// SetWall overrides the span's wall time (the pool stamps each job
// span with the job's run time, excluding queue wait). nil-safe.
func (s *Span) SetWall(d time.Duration) {
	if s == nil {
		return
	}
	if r := s.rec; r != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	s.Wall = d
}

// Count adds delta to a named counter. nil-safe.
func (s *Span) Count(name string, delta int64) {
	if s == nil {
		return
	}
	if r := s.rec; r != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	if s.Counters == nil {
		s.Counters = map[string]int64{}
	}
	s.Counters[name] += delta
}

// Set stores a counter value, replacing any previous one. nil-safe.
func (s *Span) Set(name string, v int64) {
	if s == nil {
		return
	}
	if r := s.rec; r != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	if s.Counters == nil {
		s.Counters = map[string]int64{}
	}
	s.Counters[name] = v
}

// Counter returns the value of a named counter (0 when absent).
// nil-safe; works on both live and snapshot spans.
func (s *Span) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	if r := s.rec; r != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	return s.Counters[name]
}

// Find returns the first descendant span (depth-first) with the given
// name, or nil. nil-safe; intended for tests and report assembly.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// Adopt attaches snapshot spans at the recorder's top level. The
// experiment cell store uses it to replay a stored cell's recorded
// span subtree, so a resumed run's manifest matches the uninterrupted
// one. nil-safe.
func (r *Recorder) Adopt(spans []*Span) {
	if r == nil || len(spans) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.root.Children = append(r.root.Children, spans...)
}

// Find returns the first span named name in a snapshot of the
// recorder's tree (depth-first, in start order), or nil. The result
// is a snapshot: open spans carry their wall time as of the call.
// nil-safe.
func (r *Recorder) Find(name string) *Span {
	for _, s := range r.Spans() {
		if s.Name == name {
			return s
		}
		if f := s.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// Spans returns a snapshot of the recorder's top-level spans. Spans
// still open are given their wall time as of the snapshot.
func (r *Recorder) Spans() []*Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	return snapshotSpans(r.root.Children, now)
}

func snapshotSpans(in []*Span, now time.Time) []*Span {
	out := make([]*Span, len(in))
	for i, s := range in {
		c := &Span{Name: s.Name, Started: s.Started, Wall: s.Wall}
		if s.open && c.Wall == 0 {
			c.Wall = now.Sub(s.Started)
		}
		if len(s.Counters) > 0 {
			c.Counters = make(map[string]int64, len(s.Counters))
			for k, v := range s.Counters {
				c.Counters[k] = v
			}
		}
		c.Children = snapshotSpans(s.Children, now)
		out[i] = c
	}
	return out
}
