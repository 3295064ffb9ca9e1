package pool

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"falseshare/internal/obs"
)

// TestParallelPoolOrdering: results come back indexed like the jobs
// no matter how completion order scrambles — late jobs must not
// displace early ones.
func TestParallelPoolOrdering(t *testing.T) {
	const n = 64
	jobs := make([]Job[int], n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job[int]{
			Key: fmt.Sprintf("job%02d", i),
			Run: func(context.Context) (int, error) {
				// Early jobs sleep longest, so completion order is
				// roughly the reverse of submission order.
				time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
				return i * i, nil
			},
		}
	}
	for _, workers := range []int{1, 4, 16} {
		got, err := RunPolicy(context.Background(), "order", workers, Policy{}, jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestParallelPoolBoundedConcurrency: never more than `workers` jobs
// in flight.
func TestParallelPoolBoundedConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	jobs := make([]Job[struct{}], 24)
	for i := range jobs {
		jobs[i] = Job[struct{}]{
			Key: fmt.Sprintf("j%d", i),
			Run: func(context.Context) (struct{}, error) {
				cur := inFlight.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				inFlight.Add(-1)
				return struct{}{}, nil
			},
		}
	}
	if _, err := RunPolicy(context.Background(), "bounded", workers, Policy{}, jobs); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

// TestParallelPoolPanicRecovery: a panicking job becomes that job's
// error (with its key and stack), other jobs still complete, and the
// first failure in submission order is found first by errors.As.
func TestParallelPoolPanicRecovery(t *testing.T) {
	ran := make([]atomic.Bool, 4)
	jobs := []Job[int]{
		{Key: "ok0", Run: func(context.Context) (int, error) { ran[0].Store(true); return 1, nil }},
		{Key: "boom", Run: func(context.Context) (int, error) { ran[1].Store(true); panic("kaboom") }},
		{Key: "fail", Run: func(context.Context) (int, error) { ran[2].Store(true); return 0, errors.New("plain error") }},
		{Key: "ok3", Run: func(context.Context) (int, error) { ran[3].Store(true); return 4, nil }},
	}
	for _, workers := range []int{1, 4} {
		got, err := RunPolicy(context.Background(), "panics", workers, Policy{}, jobs)
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		var pe *Error
		if !errors.As(err, &pe) || pe.Key != "boom" {
			t.Errorf("workers=%d: first failure should be job \"boom\": %v", workers, err)
		}
		if !strings.Contains(err.Error(), "kaboom") {
			t.Errorf("workers=%d: panic value missing from error: %v", workers, err)
		}
		for i := range ran {
			if !ran[i].Load() {
				t.Errorf("workers=%d: job %d did not run despite earlier failure", workers, i)
			}
		}
		if got[3] != 4 {
			t.Errorf("workers=%d: healthy job's result lost: %v", workers, got)
		}
	}
}

// TestPoolMultiError: the returned error carries EVERY keyed job
// failure in submission order, not just the first, and unwraps so
// errors.Is/As reach each one.
func TestPoolMultiError(t *testing.T) {
	sentinel := errors.New("sentinel")
	jobs := []Job[int]{
		{Key: "a", Run: func(context.Context) (int, error) { return 1, nil }},
		{Key: "b", Run: func(context.Context) (int, error) { return 0, errors.New("b failed") }},
		{Key: "c", Run: func(context.Context) (int, error) { return 3, nil }},
		{Key: "d", Run: func(context.Context) (int, error) { return 0, fmt.Errorf("wrap: %w", sentinel) }},
	}
	for _, workers := range []int{1, 4} {
		got, err := RunPolicy(context.Background(), "multi", workers, Policy{}, jobs)
		if got[0] != 1 || got[2] != 3 {
			t.Errorf("workers=%d: healthy results lost: %v", workers, got)
		}
		var merr *MultiError
		if !errors.As(err, &merr) {
			t.Fatalf("workers=%d: error is not a MultiError: %v", workers, err)
		}
		if len(merr.Errors) != 2 || merr.Errors[0].Key != "b" || merr.Errors[1].Key != "d" {
			t.Errorf("workers=%d: failed keys %v, want [b d]", workers, merr)
		}
		if merr.Jobs != 4 {
			t.Errorf("workers=%d: Jobs = %d", workers, merr.Jobs)
		}
		if !errors.Is(err, sentinel) {
			t.Errorf("workers=%d: sentinel not reachable through unwrap", workers)
		}
		if fails := Failures(err); len(fails) != 2 || fails[0].Key != "b" {
			t.Errorf("workers=%d: Failures(err) = %v", workers, fails)
		}
	}
	if Failures(nil) != nil {
		t.Error("Failures(nil) must be nil")
	}
}

// TestPoolFailFast: after the first failure the remaining jobs are
// skipped (marked ErrSkipped + cancelled), and the drain is prompt.
func TestPoolFailFast(t *testing.T) {
	const n = 32
	var started atomic.Int64
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Key: fmt.Sprintf("j%02d", i),
			Run: func(ctx context.Context) (int, error) {
				started.Add(1)
				if i == 0 {
					return 0, errors.New("first job fails")
				}
				// Later jobs wait on ctx so the serial path exercises
				// skipping and the parallel path exercises cancellation.
				select {
				case <-ctx.Done():
					return 0, ctx.Err()
				case <-time.After(5 * time.Second):
					return i, nil
				}
			},
		}
	}
	for _, workers := range []int{1, 4} {
		started.Store(0)
		start := time.Now()
		_, err := RunPolicy(context.Background(), "failfast", workers, Policy{FailFast: true}, jobs)
		if time.Since(start) > 2*time.Second {
			t.Fatalf("workers=%d: fail-fast drain took %v", workers, time.Since(start))
		}
		var merr *MultiError
		if !errors.As(err, &merr) {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(merr.Errors) < n-workers {
			t.Errorf("workers=%d: only %d failures recorded", workers, len(merr.Errors))
		}
		if merr.Errors[0].Key != "j00" {
			t.Errorf("workers=%d: first failure %q", workers, merr.Errors[0].Key)
		}
		skipped := 0
		for _, e := range merr.Errors[1:] {
			if errors.Is(e, ErrSkipped) {
				if !errors.Is(e, context.Canceled) {
					t.Errorf("workers=%d: skipped job not marked cancelled: %v", workers, e)
				}
				skipped++
			}
		}
		if skipped == 0 {
			t.Errorf("workers=%d: no jobs were skipped", workers)
		}
		if s := started.Load(); s > int64(workers) {
			t.Errorf("workers=%d: %d jobs started after fail-fast", workers, s)
		}
	}
}

// TestPoolExternalCancel: cancelling the caller's context drains the
// pool promptly and accounts for every job.
func TestPoolExternalCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	jobs := make([]Job[int], 16)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Key: fmt.Sprintf("j%02d", i),
			Run: func(ctx context.Context) (int, error) {
				if i == 0 {
					close(release)
				}
				<-ctx.Done()
				return 0, ctx.Err()
			},
		}
	}
	go func() {
		<-release
		cancel()
	}()
	_, err := RunPolicy(ctx, "cancel", 2, Policy{}, jobs)
	var merr *MultiError
	if !errors.As(err, &merr) || len(merr.Errors) != 16 {
		t.Fatalf("expected all jobs to fail after cancel: %v", err)
	}
	for _, e := range merr.Errors {
		if !errors.Is(e, context.Canceled) {
			t.Errorf("job %s: %v not a cancellation", e.Key, e.Err)
		}
	}
}

// TestPoolJobTimeout: a job that honors its context is cut off by the
// per-job deadline; jobs that finish in time are untouched.
func TestPoolJobTimeout(t *testing.T) {
	jobs := []Job[string]{
		{Key: "fast", Run: func(context.Context) (string, error) { return "done", nil }},
		{Key: "stuck", Run: func(ctx context.Context) (string, error) {
			<-ctx.Done()
			return "", ctx.Err()
		}},
	}
	got, err := RunPolicy(context.Background(), "deadline", 2,
		Policy{JobTimeout: 30 * time.Millisecond}, jobs)
	if got[0] != "done" {
		t.Errorf("fast job result %q", got[0])
	}
	fails := Failures(err)
	if len(fails) != 1 || fails[0].Key != "stuck" || !errors.Is(fails[0], context.DeadlineExceeded) {
		t.Fatalf("expected stuck/deadline, got %v", err)
	}
}

// TestParallelPoolSpanTree: the pool records one child span per job in
// submission order — regardless of worker count — and grafts each
// job's privately recorded spans under its own child.
func TestParallelPoolSpanTree(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rec := obs.NewRecorder()
		obs.Install(rec)
		jobs := make([]Job[int], 8)
		for i := range jobs {
			i := i
			jobs[i] = Job[int]{
				Key: fmt.Sprintf("k%d", i),
				Run: func(ctx context.Context) (int, error) {
					sp := obs.BeginCtx(ctx, "inner")
					sp.Set("idx", int64(i))
					sp.End()
					return i, nil
				},
			}
		}
		_, err := RunPolicy(context.Background(), "spans", workers, Policy{}, jobs)
		obs.Install(nil)
		if err != nil {
			t.Fatal(err)
		}
		spans := rec.Spans()
		if len(spans) != 1 || spans[0].Name != "pool:spans" {
			t.Fatalf("workers=%d: top spans = %+v", workers, spans)
		}
		p := spans[0]
		if p.Counter("jobs") != 8 {
			t.Errorf("workers=%d: jobs counter = %d", workers, p.Counter("jobs"))
		}
		if len(p.Children) != 8 {
			t.Fatalf("workers=%d: %d job spans, want 8", workers, len(p.Children))
		}
		for i, c := range p.Children {
			if want := fmt.Sprintf("job:k%d", i); c.Name != want {
				t.Errorf("workers=%d: child %d = %q, want %q (submission order)", workers, i, c.Name, want)
			}
			if len(c.Children) != 1 || c.Children[0].Name != "inner" {
				t.Fatalf("workers=%d: job %d subtree = %+v", workers, i, c.Children)
			}
			if got := c.Children[0].Counters["idx"]; got != int64(i) {
				t.Errorf("workers=%d: job %d adopted wrong subtree (idx=%d)", workers, i, got)
			}
		}
	}
}

// TestPoolSpanFailureAnnotations: failed and skipped jobs are marked
// on their spans (error / cancelled counters).
func TestPoolSpanFailureAnnotations(t *testing.T) {
	rec := obs.NewRecorder()
	obs.Install(rec)
	defer obs.Install(nil)
	jobs := []Job[int]{
		{Key: "bad", Run: func(context.Context) (int, error) { return 0, errors.New("x") }},
		{Key: "never", Run: func(context.Context) (int, error) { return 1, nil }},
	}
	_, err := RunPolicy(context.Background(), "annot", 1, Policy{FailFast: true}, jobs)
	if err == nil {
		t.Fatal("expected error")
	}
	spans := rec.Spans()
	p := spans[0]
	if p.Children[0].Counters["error"] != 1 {
		t.Errorf("failed job span counters: %v", p.Children[0].Counters)
	}
	if p.Children[1].Counters["cancelled"] != 1 {
		t.Errorf("skipped job span counters: %v", p.Children[1].Counters)
	}
	if p.Counter("failed") != 2 {
		t.Errorf("pool failed counter = %d", p.Counter("failed"))
	}
}

// TestParallelPoolNoRecorder: with observability off the pool neither
// panics nor installs anything.
func TestParallelPoolNoRecorder(t *testing.T) {
	obs.Install(nil)
	got, err := RunPolicy(context.Background(), "quiet", 4, Policy{}, []Job[string]{
		{Key: "a", Run: func(context.Context) (string, error) { return "x", nil }},
		{Key: "b", Run: func(context.Context) (string, error) { return "y", nil }},
	})
	if err != nil || got[0] != "x" || got[1] != "y" {
		t.Fatalf("got %v, %v", got, err)
	}
	if obs.Default() != nil {
		t.Error("pool installed a recorder")
	}
}

// TestParallelWorkersDefault: the GOMAXPROCS default and clamping.
func TestParallelWorkersDefault(t *testing.T) {
	if workerCount(0) < 1 || workerCount(-3) < 1 {
		t.Error("the worker count must default to at least 1")
	}
	if workerCount(7) != 7 {
		t.Error("explicit worker counts pass through")
	}
}
