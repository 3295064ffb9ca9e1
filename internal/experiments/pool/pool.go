// Package pool runs independent experiment jobs across a bounded set
// of worker goroutines. The evaluation's jobs (program × version ×
// nprocs × block) share nothing but read-only workload sources, so
// they parallelize freely; what the pool adds over `go` is the
// discipline the manifests and tests need:
//
//   - results come back indexed like the submitted jobs, regardless of
//     completion order, so every figure renders identically at any -j;
//   - a panicking job is recovered and surfaced as that job's error
//     (with its stack), never a crashed process;
//   - each job runs once, since a deterministic job that failed would
//     fail the same way again, and every failure is kept, keyed, in
//     submission order: the returned *MultiError names them all and
//     unwraps to each, so callers can render the cells that succeeded
//     and report exactly the ones that did not, with their causes;
//   - cancellation (a signal, a fail-fast policy) drains promptly:
//     running jobs see their context cancelled, unstarted jobs are
//     skipped and marked, and the pool always returns a complete
//     per-job accounting;
//   - each job records observability spans into its own private
//     recorder, grafted under a per-job span in submission order, so a
//     parallel run's manifest has the same deterministic span tree as
//     a serial one.
package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"falseshare/internal/faultinject"
	"falseshare/internal/obs"
)

// Job is one unit of work. Key names the job in errors and span trees
// ("fig3/maxflow/N/b128"); Run produces its result. Run must honor
// ctx: the pool cancels it on fail-fast, per-job deadline, or an
// external cancellation (Ctrl-C), and relies on the job to return.
// The experiment runner also derives each cell's store address from
// its key.
type Job[T any] struct {
	Key string
	Run func(ctx context.Context) (T, error)
}

// Error wraps a job failure with the job's key.
type Error struct {
	Key string
	Err error
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %v", e.Key, e.Err) }

// Unwrap exposes the underlying job error.
func (e *Error) Unwrap() error { return e.Err }

// ErrSkipped marks jobs that never started because the run was
// cancelled first (fail-fast after another job's failure, or an
// external cancellation). errors.Is(err, context.Canceled) also holds
// for skipped jobs, so cancellation tests stay uniform.
var ErrSkipped = errors.New("skipped: run cancelled")

// MultiError aggregates every job failure of one pool run, keyed and
// in submission order. It unwraps to all of them (errors.Is/As search
// the whole set), so a single failed cell is still found by
// errors.As(err, &poolErr) exactly as before.
type MultiError struct {
	// Errors holds one entry per failed job, in submission order.
	Errors []*Error
	// Jobs is the total number of jobs submitted.
	Jobs int
}

// Error counts as failed only the jobs whose error is not a
// cancellation, and names those with their causes; cancelled and
// skipped jobs are only counted. So a fail-fast stop reads "1 of 24
// jobs failed, 23 cancelled or skipped; <key>: <cause>", root cause
// first, whichever job the cancellation reached first.
func (m *MultiError) Error() string {
	const show = 5
	var failed []*Error
	for _, e := range m.Errors {
		if !errors.Is(e.Err, context.Canceled) {
			failed = append(failed, e)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d of %d jobs failed", len(failed), m.Jobs)
	if n := len(m.Errors) - len(failed); n > 0 {
		fmt.Fprintf(&sb, ", %d cancelled or skipped", n)
	}
	for i, e := range failed {
		if i == show {
			fmt.Fprintf(&sb, "; ... and %d more", len(failed)-show)
			break
		}
		sb.WriteString("; ")
		sb.WriteString(e.Error())
	}
	return sb.String()
}

// Unwrap exposes every keyed job error.
func (m *MultiError) Unwrap() []error {
	out := make([]error, len(m.Errors))
	for i, e := range m.Errors {
		out[i] = e
	}
	return out
}

// Failures extracts the per-job failures from a pool error: the
// MultiError's entries, a bare *Error, or nil for a nil error. Any
// other error (not produced by the pool) comes back as a single
// unkeyed entry so callers never lose it.
func Failures(err error) []*Error {
	if err == nil {
		return nil
	}
	var merr *MultiError
	if errors.As(err, &merr) {
		return merr.Errors
	}
	var one *Error
	if errors.As(err, &one) {
		return []*Error{one}
	}
	return []*Error{{Key: "", Err: err}}
}

// Policy configures how a pool run treats failure and time.
//
// The zero value reproduces the historical behavior: every job runs
// regardless of other jobs' failures, with no deadlines.
type Policy struct {
	// FailFast cancels the remaining jobs after the first failure:
	// running jobs see their context cancelled, unstarted jobs are
	// skipped (ErrSkipped). Without it the pool keeps going and runs
	// everything.
	FailFast bool
	// JobTimeout bounds each job with a context deadline (0: none).
	// Enforcement is cooperative — the job must honor its context, as
	// the VM and the restructurer do.
	JobTimeout time.Duration
}

// workerCount normalizes a -j style worker count: values <= 0 mean
// runtime.GOMAXPROCS(0).
func workerCount(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// RunPolicy executes the jobs with at most workers concurrent
// (workers <= 0: GOMAXPROCS) and returns their results indexed like
// jobs. With one worker, jobs run serially in the calling goroutine —
// no goroutines are spawned — preserving the pre-pool execution order
// exactly.
//
// Failure handling follows pol. Whatever the policy, the returned
// error is nil only when every job succeeded; otherwise it is a
// *MultiError carrying every failed job's keyed error in submission
// order — deterministic at any worker count. Results of successful
// jobs are always valid, so callers may render partial output.
//
// Cancelling ctx stops the run promptly: running jobs observe the
// cancellation through their context, unstarted jobs are skipped and
// reported with ErrSkipped.
func RunPolicy[T any](ctx context.Context, name string, workers int, pol Policy, jobs []Job[T]) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers = workerCount(workers)
	if workers > len(jobs) {
		workers = len(jobs)
	}

	// The span tree is laid out before any job runs: one child per job
	// in submission order, so the manifest's shape does not depend on
	// scheduling. Each job then records into a private recorder whose
	// spans are grafted under its pre-made child.
	parent := obs.BeginCtx(ctx, "pool:"+name)
	parent.Set("jobs", int64(len(jobs)))
	parent.Set("workers", int64(workers))
	defer parent.End()
	spans := make([]*obs.Span, len(jobs))
	for i, j := range jobs {
		spans[i] = parent.Child("job:" + j.Key)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]T, len(jobs))
	errs := make([]error, len(jobs))
	runJob := func(i int) {
		if cerr := runCtx.Err(); cerr != nil {
			// Prompt drain: the run was cancelled before this job
			// started. Mark it skipped (and cancelled) without running.
			errs[i] = fmt.Errorf("%w: %w", ErrSkipped, cerr)
			spans[i].Fail(errs[i])
			spans[i].End()
			return
		}
		results[i], errs[i] = runOne(runCtx, pol, spans[i], jobs[i])
		if errs[i] != nil && pol.FailFast {
			cancel()
		}
	}

	if workers <= 1 {
		for i := range jobs {
			runJob(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					runJob(i)
				}
			}()
		}
		for i := range jobs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	var failed []*Error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, &Error{Key: jobs[i].Key, Err: err})
		}
	}
	if failed != nil {
		parent.Set("failed", int64(len(failed)))
		return results, &MultiError{Errors: failed, Jobs: len(jobs)}
	}
	return results, nil
}

// runOne executes a single job under its own recorder and deadline,
// converting a panic into the job's error, and owns the job span's
// lifetime.
func runOne[T any](ctx context.Context, pol Policy, span *obs.Span, job Job[T]) (result T, err error) {
	start := time.Now()
	if pol.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, pol.JobTimeout)
		defer cancel()
	}
	var rec *obs.Recorder
	if base := obs.FromContext(ctx); base != nil {
		rec = obs.NewRecorder()
		rec.Verbose = base.Verbose
		rec.LogW = base.LogW
		ctx = obs.WithRecorder(ctx, rec)
	}
	defer func() {
		if p := recover(); p != nil {
			err = panicked(span, p)
		}
		if rec != nil {
			if aerr := adopt(span, rec); err == nil {
				err = aerr
			}
		}
		span.SetWall(time.Since(start))
		span.Fail(err)
		span.End()
	}()
	if ferr := faultinject.Fire(ctx, "pool.worker", job.Key); ferr != nil {
		return result, ferr
	}
	return job.Run(ctx)
}

// adopt grafts the spans a job recorded in rec under its span. A panic
// while snapshotting them fails that job, as a panic in the job does.
func adopt(span *obs.Span, rec *obs.Recorder) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = panicked(span, p)
		}
	}()
	span.Adopt(rec.Spans())
	return nil
}

// panicked turns a recovered panic into the job's error and marks its
// span.
func panicked(span *obs.Span, p any) error {
	span.Set("panic", 1)
	return fmt.Errorf("panic: %v\n%s", p, debug.Stack())
}
