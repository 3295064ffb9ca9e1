// Package faultinject provides deterministic, spec-driven fault
// points for testing the experiment stack's recovery paths. Sites in
// the pipeline (the pool's workers, the restructurer, the VM, the
// trace fan-out) call Fire at well-known point names; a fault set
// parsed from FSEXP_FAULTS or -faults decides — purely from the spec,
// hit counts, and a seeded hash of the site detail, never from wall
// clock or scheduling — whether that hit errors, panics, delays, or
// hangs.
//
// A spec is a semicolon-separated list of rules:
//
//	point[=match]:mode[=duration][:after=N][:count=N][:p=F[:seed=N]][:transient]
//
//	pool.worker=fig3/maxflow/N/b16:error      fail exactly that job
//	vm.run:error:after=2:count=1              fail only the 3rd VM run
//	core.restructure:panic:count=1            panic the first restructure
//	pool.worker:delay=5ms                     slow every job by 5ms
//	vm.run:hang:count=1                       hang one run until cancelled
//	pool.worker:error:transient:count=2       two retryable failures
//	pool.worker:error:p=0.25:seed=7           a deterministic 25% of keys
//	worker.cell=matrix/gen-003:exit           kill the worker process
//	                                          that picks up that cell
//	worker.send:corrupt:count=1               mangle one result frame
//
// Points: pool.worker, core.compile, core.restructure, vm.run,
// trace.partee, transform.apply (detail: the decision's target key —
// fail one transformation decision), transform.corrupt (same detail;
// makes the applier emit a deliberately wrong rewrite, a seeded
// miscompile for translation-validation tests), and layout (detail:
// the shared global being laid out). The distributed fabric adds
// worker.cell (fired in a worker process at the start of every
// assigned cell — exit and hang simulate worker crashes and wedges),
// worker.send (the worker's result transmission; corrupt mangles the
// frame so the coordinator must treat the worker as failed), and
// coord.kill (fired in the coordinator at each assignment; an error
// firing there makes the coordinator SIGKILL the assigned worker
// mid-cell — a deterministic, fires-once-globally worker kill).
// The fsd daemon adds serve.handler (fired inside every admitted
// request's pooled job, detail "<endpoint>/<source-hash>" — panic
// and hang exercise containment and deadlines) and serve.drain (fired
// at the start of graceful drain). The artifact store fires its point
// in Put — serve.cache for fsd's response cache, cell.store for the
// experiment cell store (fsexp -cache) — with details "put/<key>"
// and, inside the commit window between the tmp write and the
// rename, "rename/<key>" — exit there leaves a torn write exactly
// like kill -9; corrupt commits a deliberately damaged entry.
// A literal * matches every point.
//
// Determinism: `after`/`count` count hits on a per-rule atomic counter
// (exact under -j 1; under parallel runs the set of firing hits can
// vary with schedule), while `match` and `p`+`seed` depend only on the
// site detail string — those select the same victims at any -j.
//
// When no fault set is enabled, Fire is one atomic load.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Mode is the action a rule takes when it fires.
type Mode int

const (
	// ModeError makes the site return an *Error.
	ModeError Mode = iota
	// ModePanic panics at the site (exercises recovery paths).
	ModePanic
	// ModeDelay sleeps for the rule's duration, then proceeds.
	ModeDelay
	// ModeHang blocks until the site's context is cancelled, then
	// returns the context error.
	ModeHang
	// ModeExit terminates the process with the rule's exit code
	// (default 3) — the fabric's worker-crash chaos mode. Only sites
	// that are legitimate whole-process kill points (worker cells)
	// should be targeted with it; the site cannot intercept it.
	ModeExit
	// ModeCorrupt returns an *Error marked Corrupted. Sites that
	// support corruption (the fabric worker's result send) check
	// IsCorrupt and deliberately mangle their payload instead of
	// failing; other sites treat it as a plain injected error.
	ModeCorrupt
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeDelay:
		return "delay"
	case ModeHang:
		return "hang"
	case ModeExit:
		return "exit"
	case ModeCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Error is an injected failure. It unwraps nothing — it IS the root
// cause — and reports itself transient when the rule says so, which
// the pool's default retry classifier honors.
type Error struct {
	Point     string
	Detail    string
	Retryable bool
	// Corrupted marks a ModeCorrupt injection: the site should mangle
	// its payload rather than fail, if it knows how.
	Corrupted bool
}

func (e *Error) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("injected fault at %s (%s)", e.Point, e.Detail)
	}
	return "injected fault at " + e.Point
}

// Transient reports whether the fault was declared retryable.
func (e *Error) Transient() bool { return e.Retryable }

// IsCorrupt reports whether err carries a ModeCorrupt injection.
func IsCorrupt(err error) bool {
	var fe *Error
	return errors.As(err, &fe) && fe.Corrupted
}

// Rule is one parsed fault rule.
type Rule struct {
	Point     string        // site name, or "*"
	Match     string        // substring the site detail must contain
	Mode      Mode          // what to do
	Delay     time.Duration // ModeDelay duration
	ExitCode  int           // ModeExit status (default 3)
	After     int64         // skip the first After matching hits
	Count     int64         // fire at most Count times (0: unlimited)
	P         float64       // fire probability over details (0: always)
	Seed      uint64        // seed for the P hash
	Transient bool          // injected errors report Transient() == true

	hits  atomic.Int64
	fires atomic.Int64
}

// Set is a parsed fault specification.
type Set struct {
	Rules []*Rule
}

// enabled is the process-wide fault set (nil: injection off).
var enabled atomic.Pointer[Set]

// Enable installs s as the process-wide fault set (nil disables).
func Enable(s *Set) {
	if s != nil && len(s.Rules) == 0 {
		s = nil
	}
	enabled.Store(s)
}

// Disable turns fault injection off.
func Disable() { enabled.Store(nil) }

// Active reports whether a fault set is enabled.
func Active() bool { return enabled.Load() != nil }

// Parse parses a fault spec (see the package comment for the
// grammar). An empty spec yields an empty set.
func Parse(spec string) (*Set, error) {
	s := &Set{}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := parseRule(part)
		if err != nil {
			return nil, fmt.Errorf("faultinject: rule %q: %w", part, err)
		}
		s.Rules = append(s.Rules, r)
	}
	return s, nil
}

func parseRule(spec string) (*Rule, error) {
	fields := strings.Split(spec, ":")
	if len(fields) < 2 {
		return nil, fmt.Errorf("want point:mode, got %d field(s)", len(fields))
	}
	r := &Rule{}
	r.Point, r.Match, _ = strings.Cut(fields[0], "=")
	if r.Point == "" {
		return nil, fmt.Errorf("empty point")
	}

	mode := fields[1]
	var modeArg string
	if k, v, ok := strings.Cut(mode, "="); ok {
		mode, modeArg = k, v
	}
	switch mode {
	case "error":
		r.Mode = ModeError
	case "panic":
		r.Mode = ModePanic
	case "delay":
		r.Mode = ModeDelay
		d, err := time.ParseDuration(modeArg)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("delay needs a duration (delay=5ms), got %q", modeArg)
		}
		r.Delay = d
	case "hang":
		r.Mode = ModeHang
	case "exit":
		r.Mode = ModeExit
		r.ExitCode = 3
		if modeArg != "" {
			n, err := strconv.Atoi(modeArg)
			if err != nil || n < 0 || n > 255 {
				return nil, fmt.Errorf("exit needs a status in [0,255] (exit=7), got %q", modeArg)
			}
			r.ExitCode = n
		}
	case "corrupt":
		r.Mode = ModeCorrupt
	default:
		return nil, fmt.Errorf("unknown mode %q (error|panic|delay|hang|exit|corrupt)", mode)
	}

	for _, f := range fields[2:] {
		key, val, _ := strings.Cut(f, "=")
		switch key {
		case "after":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("after needs a non-negative integer, got %q", val)
			}
			r.After = n
		case "count":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("count needs a positive integer, got %q", val)
			}
			r.Count = n
		case "p":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("p needs a probability in [0,1], got %q", val)
			}
			r.P = p
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("seed needs an unsigned integer, got %q", val)
			}
			r.Seed = n
		case "transient":
			if val != "" {
				return nil, fmt.Errorf("transient takes no value")
			}
			r.Transient = true
		default:
			return nil, fmt.Errorf("unknown option %q", key)
		}
	}
	return r, nil
}

// FromEnv parses and enables the FSEXP_FAULTS environment spec; it
// returns the enabled set (nil when the variable is empty/unset).
func FromEnv(env string) (*Set, error) {
	if env == "" {
		return nil, nil
	}
	s, err := Parse(env)
	if err != nil {
		return nil, err
	}
	Enable(s)
	return s, nil
}

// Fire evaluates the enabled fault set at one site hit. It returns a
// non-nil error when an error (or hang cancellation) is injected,
// panics for ModePanic, sleeps for ModeDelay, and returns nil
// otherwise — including always when injection is disabled. ctx may be
// nil (treated as uncancellable; hangs then fire as errors instead of
// blocking forever).
func Fire(ctx context.Context, point, detail string) error {
	s := enabled.Load()
	if s == nil {
		return nil
	}
	for _, r := range s.Rules {
		if !r.matches(point, detail) {
			continue
		}
		if !r.take(detail) {
			continue
		}
		switch r.Mode {
		case ModeError:
			return &Error{Point: point, Detail: detail, Retryable: r.Transient}
		case ModePanic:
			panic(fmt.Sprintf("faultinject: injected panic at %s (%s)", point, detail))
		case ModeDelay:
			sleep(ctx, r.Delay)
		case ModeHang:
			if ctx == nil {
				return &Error{Point: point, Detail: detail, Retryable: r.Transient}
			}
			<-ctx.Done()
			return ctx.Err()
		case ModeExit:
			fmt.Fprintf(os.Stderr, "faultinject: injected exit(%d) at %s (%s)\n", r.ExitCode, point, detail)
			osExit(r.ExitCode)
		case ModeCorrupt:
			return &Error{Point: point, Detail: detail, Retryable: r.Transient, Corrupted: true}
		}
	}
	return nil
}

// osExit is swapped out by tests that must observe ModeExit without
// dying.
var osExit = os.Exit

// matches reports whether the rule applies to this site hit at all.
func (r *Rule) matches(point, detail string) bool {
	if r.Point != "*" && r.Point != point {
		return false
	}
	return r.Match == "" || strings.Contains(detail, r.Match)
}

// take counts a matching hit and decides whether the rule fires on it.
func (r *Rule) take(detail string) bool {
	if r.P > 0 && hashP(r.Seed, detail) >= r.P {
		return false
	}
	hit := r.hits.Add(1)
	if hit <= r.After {
		return false
	}
	if r.Count > 0 && r.fires.Add(1) > r.Count {
		return false
	}
	return true
}

// Fires returns how many times the rule has fired (for tests).
func (r *Rule) Fires() int64 {
	n := r.fires.Load()
	if r.Count > 0 && n > r.Count {
		n = r.Count
	}
	return n
}

// hashP maps (seed, detail) to [0,1) deterministically: the same
// detail fires or not regardless of scheduling or worker count.
func hashP(seed uint64, detail string) float64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(seed >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(detail))
	// FNV alone diffuses a short input's last bytes only into the low
	// bits; finish with a splitmix64-style mix so the top bits vary.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// sleep waits for d or until ctx is cancelled.
func sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	if ctx == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
