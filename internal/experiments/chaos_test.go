package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"falseshare/internal/core"
	"falseshare/internal/experiments/pool"
	"falseshare/internal/faultinject"
	"falseshare/internal/sim/cache"
)

// The chaos suite drives the fault-injection harness through the real
// experiment stack: deterministic faults (error, panic, delay) at the
// pool worker, inside the VM run loop and in the compiler, under the
// keep-going policy. Every case asserts the same three things the
// runner promises: the pool drains cleanly (complete per-job
// accounting, no hang, no leaked goroutine — the race detector rides
// along in CI), the store holds exactly the cells that succeeded, and
// a resumed run completes the rest and converges to the same results
// as an undisturbed run. The trace.partee fault point is tested where
// ParTee lives, in internal/sim/trace.

// chaosSource is a small terminating program whose per-process writes
// actually false-share, so the measured counters are non-trivial.
const chaosSource = `
shared int cells[16];
void main() {
    int i;
    i = 0;
    while (i < 3000) {
        cells[pid] = cells[pid] + i;
        i = i + 1;
    }
}
`

// chaosJobs builds n identical compile→run→simulate jobs over the
// chaos program, each with its own fingerprint so the store keeps
// them apart.
func chaosJobs(n int) []pool.Job[int64] {
	const block = 64
	jobs := make([]pool.Job[int64], n)
	for i := range jobs {
		key := fmt.Sprintf("chaos/cell%d", i)
		jobs[i] = pool.Job[int64]{
			Key:         key,
			Fingerprint: fingerprint("chaos", key),
			Run: func(ctx context.Context) (int64, error) {
				prog, err := core.CompileCtx(ctx, chaosSource, core.Options{Nprocs: 4, BlockSize: block})
				if err != nil {
					return 0, err
				}
				st, err := MeasureConfig(ctx, prog, cache.DefaultConfig(4, block), 0)
				if err != nil {
					return 0, err
				}
				return st.Refs, nil
			},
		}
	}
	return jobs
}

// TestChaosMatrix: error/panic/delay at each fault point, keep-going,
// with a store. Failures must be confined to the injected count,
// the store must keep exactly the survivors, and a resumed run
// (faults off) must finish the rest.
func TestChaosMatrix(t *testing.T) {
	const nJobs = 6

	cases := []struct {
		name     string
		spec     string
		wantFail int
	}{
		// Pool-worker faults hit before the job body runs; the match
		// pins the victim, so the failed key is exact.
		{"pool-error", "pool.worker=chaos/cell3:error", 1},
		{"pool-panic", "pool.worker=chaos/cell3:panic", 1},
		{"pool-delay", "pool.worker:delay=2ms", 0},
		// VM faults fire inside Machine.Run; count=1 fails exactly one
		// cell (which one depends on scheduling — that's the point).
		{"vm-error", "vm.run:error:count=1", 1},
		{"vm-panic", "vm.run:panic:count=1", 1},
		{"vm-delay", "vm.run:delay=2ms:count=3", 0},
		// Compiler-stage fault.
		{"core-error", "core.compile:error:count=1", 1},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			store := openStore(t, dir)
			cfg := Config{
				Workers: 4,
				Policy:  pool.Policy{FailFast: false},
				Store:   store,
			}
			s, err := faultinject.Parse(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			faultinject.Enable(s)
			results, err := runJobs(cfg, "chaos", chaosJobs(nJobs))
			faultinject.Enable(nil)

			if tc.wantFail == 0 {
				if err != nil {
					t.Fatalf("delay fault must not fail jobs: %v", err)
				}
				if n := storedCells(store); n != nJobs {
					t.Fatalf("store has %d cells, want %d", n, nJobs)
				}
				return
			}

			failures := pool.Failures(err)
			if len(failures) != tc.wantFail {
				t.Fatalf("failures = %d (%v), want %d", len(failures), err, tc.wantFail)
			}
			failedSet := map[string]bool{}
			for _, f := range failures {
				failedSet[f.Key] = true
			}
			// Keep-going: every cell has a definite outcome and the
			// survivors carry real results.
			for i, r := range results {
				key := fmt.Sprintf("chaos/cell%d", i)
				if failedSet[key] {
					continue
				}
				if r <= 0 {
					t.Errorf("%s: surviving cell has empty result %d", key, r)
				}
			}
			// The store kept exactly the survivors.
			if n := storedCells(store); n != nJobs-tc.wantFail {
				t.Errorf("store has %d cells, want %d", n, nJobs-tc.wantFail)
			}
			for _, j := range chaosJobs(nJobs) {
				if _, ok := store.Get(CellSchema, j.Fingerprint); ok && failedSet[j.Key] {
					t.Errorf("failed cell %s was stored", j.Key)
				}
			}

			// Resume with faults off: only the failed cells re-run, and
			// the final results match an undisturbed run.
			cfg.Store = openStore(t, dir)
			resumed, err := runJobs(cfg, "chaos", chaosJobs(nJobs))
			if err != nil {
				t.Fatalf("resume failed: %v", err)
			}
			clean, err := runJobs(Config{Workers: 4}, "chaos", chaosJobs(nJobs))
			if err != nil {
				t.Fatal(err)
			}
			for i := range clean {
				if resumed[i] != clean[i] {
					t.Errorf("cell%d: resumed %d != clean %d", i, resumed[i], clean[i])
				}
			}
		})
	}
}

// TestChaosFailFastDrain: under fail-fast, one injected failure must
// cancel the rest promptly — every remaining cell reports skipped (and
// cancelled), none hangs — while the error still carries the root
// cause.
func TestChaosFailFastDrain(t *testing.T) {
	s, err := faultinject.Parse("pool.worker=chaos/cell0:error")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(s)
	t.Cleanup(func() { faultinject.Enable(nil) })

	cfg := Config{Workers: 1, Policy: pool.Policy{FailFast: true}}
	done := make(chan error, 1)
	go func() {
		_, err := runJobs(cfg, "chaos", chaosJobs(8))
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("fail-fast run did not drain")
	}
	var fe *faultinject.Error
	if !errors.As(err, &fe) {
		t.Fatalf("root cause lost: %v", err)
	}
	failures := pool.Failures(err)
	if len(failures) != 8 {
		t.Fatalf("want all 8 cells accounted, got %d", len(failures))
	}
	skipped := 0
	for _, f := range failures[1:] {
		if errors.Is(f.Err, pool.ErrSkipped) {
			skipped++
		}
	}
	if skipped != 7 {
		t.Errorf("want 7 skipped cells after the serial fail-fast failure, got %d", skipped)
	}
}

// TestChaosInterruptedResumeManifest is the acceptance criterion:
// a run interrupted partway (fail-fast cancellation after an injected
// failure) and then resumed from its store must produce a manifest
// byte-identical — modulo timing fields — to an uninterrupted run.
func TestChaosInterruptedResumeManifest(t *testing.T) {
	cfg := determinismConfig(4)

	// Uninterrupted reference run.
	clean := manifestBytes(t, "fig3", cfg, func() (any, error) { return Figure3(cfg) })

	// Interrupted run: one cell fails, fail-fast cancels the rest.
	dir := t.TempDir()
	store := openStore(t, dir)
	s, err := faultinject.Parse("pool.worker=fig3/pverify/C/b128:error")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(s)
	icfg := cfg
	icfg.Store = store
	icfg.Policy = pool.Policy{FailFast: true}
	_, ierr := RunManifest("fsexp", "fig3", ConfigMap(icfg), func() (any, error) { return Figure3(icfg) })
	faultinject.Enable(nil)
	if ierr == nil {
		t.Fatal("interrupted run reported success")
	}
	if !errors.Is(ierr, pool.ErrSkipped) && storedCells(store) == 0 {
		t.Log("note: no cells were skipped — interruption landed late")
	}
	completed := storedCells(store)

	// Resumed run: stored cells replay from the store, the rest
	// execute fresh.
	store2 := openStore(t, dir)
	rcfg := cfg
	rcfg.Store = store2
	resumed := manifestBytes(t, "fig3", rcfg, func() (any, error) { return Figure3(rcfg) })

	if !bytes.Equal(clean, resumed) {
		d1, d2 := firstDiff(clean, resumed)
		t.Errorf("resumed manifest differs from uninterrupted run (%d cells were checkpointed):\n--- clean ---\n%s\n--- resumed ---\n%s",
			completed, d1, d2)
	}
	if storedCells(store2) <= completed && completed > 0 {
		t.Errorf("resume did not store the remaining cells: %d -> %d", completed, storedCells(store2))
	}
}
