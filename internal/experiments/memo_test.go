package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"falseshare/internal/core"
	"falseshare/internal/experiments/pool"
	"falseshare/internal/faultinject"
	"falseshare/internal/obs"
	"falseshare/internal/sim/cache"
	"falseshare/internal/sim/ksr"
	"falseshare/internal/vm"
)

// The memo tests carry "Chaos" in their names: they pin how shared
// measurements fail, and ride the chaos suite's race-detector run.

// memoProbe is a measurement under test control: it counts its runs,
// records one span, and can be held until released or made to fail.
type memoProbe struct {
	runs    atomic.Int32
	entered chan struct{} // receives once per run, when it starts
	release chan struct{} // a held run waits for it
	hold    atomic.Bool   // hold the next run
	fail    atomic.Value  // func(run int32) error, or panics
}

func newMemoProbe() *memoProbe {
	return &memoProbe{entered: make(chan struct{}, 16), release: make(chan struct{})}
}

func (p *memoProbe) measure(ctx context.Context) (int64, error) {
	n := p.runs.Add(1)
	sp := obs.BeginCtx(ctx, "probe")
	sp.Set("run", int64(n))
	defer sp.End()
	p.entered <- struct{}{}
	if p.hold.Swap(false) {
		select {
		case <-p.release:
		case <-time.After(30 * time.Second):
			return 0, errors.New("probe never released")
		}
	}
	if f, _ := p.fail.Load().(func(int32) error); f != nil {
		if err := f(n); err != nil {
			return 0, err
		}
	}
	return 42, nil
}

// ask calls share for key under rec, and returns the result, the span
// forest the call grafted and the error.
func (p *memoProbe) ask(ctx context.Context, m *memo, key [32]byte) (int64, []*obs.Span, error) {
	rec := obs.NewRecorder()
	v, err := share(obs.WithRecorder(ctx, rec), m, key, rec.Adopt, p.measure)
	return v, rec.Spans(), err
}

func newMemo(t *testing.T) *memo {
	t.Helper()
	m := memoFrom(WithMeasureMemo(context.Background()))
	if m == nil {
		t.Fatal("WithMeasureMemo put no memo on the context")
	}
	return m
}

// await fails the test unless ch delivers within the timeout.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestChaosMemoConcurrentAskersRunOnce: eight concurrent askers of one
// key run the measurement once. The leader keeps its span walls; every
// other asker adopts the same subtree with zero walls.
func TestChaosMemoConcurrentAskersRunOnce(t *testing.T) {
	m, p := newMemo(t), newMemoProbe()
	p.hold.Store(true)
	var key [32]byte
	type answer struct {
		v     int64
		spans []*obs.Span
		err   error
	}
	answers := make(chan answer, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, spans, err := p.ask(context.Background(), m, key)
			answers <- answer{v, spans, err}
		}()
	}
	await(t, p.entered, "the leader")
	// Give the others time to join the flight. Nothing exposes that
	// they wait, and the assertions hold in either order: a late
	// asker takes the kept result.
	time.Sleep(20 * time.Millisecond)
	close(p.release)
	wg.Wait()
	close(answers)
	leaders := 0
	for a := range answers {
		if a.err != nil || a.v != 42 {
			t.Fatalf("asker got %d, %v", a.v, a.err)
		}
		if len(a.spans) != 1 || a.spans[0].Name != "probe" || a.spans[0].Counter("run") != 1 {
			t.Fatalf("asker adopted %v, want the leader's probe span", a.spans)
		}
		if a.spans[0].Wall > 0 {
			leaders++
		}
	}
	if n := p.runs.Load(); n != 1 {
		t.Errorf("measurement ran %d times, want 1", n)
	}
	if leaders != 1 {
		t.Errorf("%d askers kept a wall time, want only the leader's", leaders)
	}
}

// TestChaosMemoLeaderErrorStaysOwn: a failing leader's error reaches
// only its own cell. Its waiters measure again, and the success is
// kept for later askers.
func TestChaosMemoLeaderErrorStaysOwn(t *testing.T) {
	m, p := newMemo(t), newMemoProbe()
	p.hold.Store(true)
	boom := errors.New("boom")
	p.fail.Store(func(run int32) error {
		if run == 1 {
			return boom
		}
		return nil
	})
	var key [32]byte
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := p.ask(context.Background(), m, key)
		leaderErr <- err
	}()
	await(t, p.entered, "the leader")
	waiterErrs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			v, _, err := p.ask(context.Background(), m, key)
			if err == nil && v != 42 {
				err = fmt.Errorf("result %d", v)
			}
			waiterErrs <- err
		}()
	}
	time.Sleep(20 * time.Millisecond) // as above: time to join, not a condition
	close(p.release)
	if err := <-leaderErr; !errors.Is(err, boom) {
		t.Errorf("leader returned %v, want its own error", err)
	}
	for i := 0; i < 3; i++ {
		if err := <-waiterErrs; err != nil {
			t.Errorf("waiter returned %v, want 42", err)
		}
	}
	if v, _, err := p.ask(context.Background(), m, key); err != nil || v != 42 {
		t.Errorf("later asker got %d, %v", v, err)
	}
	if n := p.runs.Load(); n != 2 {
		t.Errorf("measurement ran %d times, want 2 (the failure, then one success)", n)
	}
}

// TestChaosMemoLeaderPanicReleasesWaiters: a leader that panics still
// releases its waiters, which then succeed.
func TestChaosMemoLeaderPanicReleasesWaiters(t *testing.T) {
	m, p := newMemo(t), newMemoProbe()
	p.hold.Store(true)
	p.fail.Store(func(run int32) error {
		if run == 1 {
			panic("injected")
		}
		return nil
	})
	var key [32]byte
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		p.ask(context.Background(), m, key)
	}()
	await(t, p.entered, "the leader")
	waiterErrs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			_, _, err := p.ask(context.Background(), m, key)
			waiterErrs <- err
		}()
	}
	time.Sleep(20 * time.Millisecond) // as above: time to join, not a condition
	close(p.release)
	if r := <-panicked; r == nil {
		t.Error("the leader's panic was swallowed")
	}
	for i := 0; i < 3; i++ {
		select {
		case err := <-waiterErrs:
			if err != nil {
				t.Errorf("waiter returned %v, want success", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a waiter hangs after its leader panicked")
		}
	}
}

// TestChaosMemoWaiterCancelled: a waiter whose own context ends
// returns ctx.Err() at once; the leader finishes and its result stays
// kept for later askers.
func TestChaosMemoWaiterCancelled(t *testing.T) {
	m, p := newMemo(t), newMemoProbe()
	p.hold.Store(true)
	var key [32]byte
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := p.ask(context.Background(), m, key)
		leaderErr <- err
	}()
	await(t, p.entered, "the leader")
	ctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := p.ask(ctx, m, key)
		waiterErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // as above: time to join, not a condition
	cancel()
	select {
	case err := <-waiterErr:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a cancelled waiter still waits")
	}
	close(p.release)
	if err := <-leaderErr; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if v, _, err := p.ask(context.Background(), m, key); err != nil || v != 42 {
		t.Errorf("later asker got %d, %v", v, err)
	}
	if n := p.runs.Load(); n != 1 {
		t.Errorf("measurement ran %d times, want 1", n)
	}
}

// TestChaosMemoKey: the key is stable across compiles of one program,
// and follows its bytecode, the kind of measurement, the cache
// configuration and the step budget.
func TestChaosMemoKey(t *testing.T) {
	compile := func(src string) *vm.Program {
		t.Helper()
		prog, err := core.CompileCtx(context.Background(), src, core.Options{Nprocs: 4, BlockSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, 4)
		if err != nil {
			t.Fatal(err)
		}
		return bc
	}
	bc := compile(chaosSource)
	ccfg := cache.DefaultConfig(4, 64)
	base := programKey(bc, measurePlain, ccfg, 0)
	if programKey(compile(chaosSource), measurePlain, ccfg, 0) != base {
		t.Error("recompiling the same program changes its key")
	}
	bigger := ccfg
	bigger.CacheSize *= 2
	for name, k := range map[string][32]byte{
		"bytecode":            programKey(compile(strings.Replace(chaosSource, "3000", "4000", 1)), measurePlain, ccfg, 0),
		"cache configuration": programKey(bc, measurePlain, bigger, 0),
		"budget":              programKey(bc, measurePlain, ccfg, 1e6),
		"kind":                programKey(bc, measureTimed, ccfg, 0),
	} {
		if k == base {
			t.Errorf("the key ignores the %s", name)
		}
	}
	machine := ksr.DefaultConfig()
	biggerKSR := machine
	biggerKSR.CacheSize *= 2
	if programKey(bc, measureTimed, biggerKSR.Cache(4), 0) == programKey(bc, measureTimed, machine.Cache(4), 0) {
		t.Error("the key ignores the KSR configuration")
	}
}

// TestChaosMemoAttributedNeverShared: under one memo a plain
// measurement runs a program once, while every attributed one runs
// it again; vm.run's second hit fails, so a run is counted by its
// error.
func TestChaosMemoAttributedNeverShared(t *testing.T) {
	prog, err := core.CompileCtx(context.Background(), chaosSource, core.Options{Nprocs: 4, BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	ccfg := cache.DefaultConfig(4, 64)
	enableFaults(t, "vm.run:error:after=1")
	ctx := WithMeasureMemo(context.Background())
	for i := 0; i < 3; i++ {
		if _, err := MeasureConfig(ctx, prog, ccfg, 0); err != nil {
			t.Fatalf("plain measurement %d ran the VM again: %v", i, err)
		}
	}
	if _, _, err := MeasureConfigAttr(ctx, prog, ccfg, 0); err == nil {
		t.Fatal("an attributed measurement took the shared result")
	}
}

// enableFaults enables spec until the test ends.
func enableFaults(t *testing.T, spec string) {
	t.Helper()
	s, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(s)
	t.Cleanup(func() { faultinject.Enable(nil) })
}

// TestChaosSharedMeasurementCounts counts VM runs with fault rules, at
// -j 1 and -j 8 on the determinism configuration. Table 2's 72 cells
// execute 56 distinct programs, 24 of them Figure 3's cells, and
// Table 3's 75 cells include Figure 4's 27. Each section runs exactly
// as many VM runs as it has programs the run has not measured yet,
// and a failed run fails only the one cell that ran it.
func TestChaosSharedMeasurementCounts(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("j%d", workers), func(t *testing.T) {
			cfg := determinismConfig(workers)
			t.Run("table2 runs 56", func(t *testing.T) {
				enableFaults(t, "vm.run:error:after=56")
				if _, err := Table2(cfg); err != nil {
					t.Errorf("Table 2 ran more than 56 VM runs: %v", err)
				}
			})
			t.Run("one failed run fails one cell", func(t *testing.T) {
				enableFaults(t, "vm.run:error:after=55:count=1")
				if _, err := Table2(cfg); len(pool.Failures(err)) != 1 {
					t.Errorf("want exactly one failed cell, got %v", err)
				}
			})
			t.Run("table2 after fig3 runs 32", func(t *testing.T) {
				run := cfg
				run.Ctx = WithMeasureMemo(context.Background())
				if _, err := Figure3(run); err != nil {
					t.Fatal(err)
				}
				enableFaults(t, "vm.run:error:after=32")
				if _, err := Table2(run); err != nil {
					t.Errorf("Table 2 after Figure 3 ran more than 32 VM runs: %v", err)
				}
			})
			t.Run("table3 after fig4 runs 48", func(t *testing.T) {
				run := cfg
				run.Ctx = WithMeasureMemo(context.Background())
				machine := ksr.DefaultConfig()
				if _, err := Figure4(run, machine); err != nil {
					t.Fatal(err)
				}
				enableFaults(t, "vm.run:error")
				_, err := Table3(run, machine)
				var merr *pool.MultiError
				if !errors.As(err, &merr) || len(merr.Errors) != 48 || merr.Jobs != 75 {
					t.Fatalf("want 48 of 75 cells failed, got %v", err)
				}
				for _, e := range merr.Errors {
					for _, fig4 := range []string{"raytrace", "fmm", "pverify"} {
						if strings.HasPrefix(e.Key, "fig4/"+fig4+"/") {
							t.Errorf("%s failed, but Figure 4 already measured it", e.Key)
						}
					}
				}
			})
		})
	}
}
