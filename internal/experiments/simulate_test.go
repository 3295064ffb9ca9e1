package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"falseshare/internal/core"
	"falseshare/internal/faultinject"
	"falseshare/internal/obs"
	"falseshare/internal/sim/attr"
	"falseshare/internal/sim/cache"
	"falseshare/internal/sim/trace"
	"falseshare/internal/transform"
	"falseshare/internal/vm"
	"falseshare/internal/workload"
)

// SimulateStream's deliveries, each against the one-configuration
// measurement every experiment cell makes.

// streamSetup compiles pverify N at 4 processes and returns it with
// one cache configuration per block size of an fssim sweep.
func streamSetup(t *testing.T) (*core.Program, []cache.Config) {
	t.Helper()
	prog, err := ProgramCtx(context.Background(), workload.Get("pverify"), VersionN, 4, 1, 16, transform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []cache.Config
	for _, blk := range []int64{16, 64, 128} {
		cfgs = append(cfgs, cache.DefaultConfig(4, blk))
	}
	return prog, cfgs
}

// vmStream returns a stream that runs prog once on a fresh machine,
// attached to amap when there is one.
func vmStream(t *testing.T, prog *core.Program, amap *attr.Map) func(trace.Sink) error {
	t.Helper()
	bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, int(prog.Layout.Nprocs))
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(bc)
	if amap != nil {
		amap.AttachMachine(m)
	}
	return func(s trace.Sink) error { return m.Run(s) }
}

// atLeastTwoCPUs lets SimulateStream choose ParTee for the rest of the
// test.
func atLeastTwoCPUs(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestSimulateStreamParTee feeds three simulators from one VM run on
// their own goroutines: each block size's statistics equal what
// MeasureConfig measures alone, and each simulator's span sits under
// the caller's.
func TestSimulateStreamParTee(t *testing.T) {
	atLeastTwoCPUs(t)
	prog, cfgs := streamSetup(t)
	ctx := obs.WithRecorder(context.Background(), obs.NewRecorder())
	sp := obs.BeginCtx(ctx, "measure")
	stats, reports, err := SimulateStream(ctx, sp, vmStream(t, prog, nil), cfgs, nil)
	sp.End()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != len(cfgs) || reports != nil {
		t.Fatalf("got %d stats and reports %v, want %d stats and no reports", len(stats), reports, len(cfgs))
	}
	for i, cfg := range cfgs {
		want, err := MeasureConfig(context.Background(), prog, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stats[i], want) {
			t.Errorf("block %d: stream stats differ from MeasureConfig\n got %s\nwant %s", cfg.BlockSize, stats[i], want)
		}
		if name := fmt.Sprintf("sim:b%d", cfg.BlockSize); sp.Find(name) == nil {
			t.Errorf("no %s span under the caller's span", name)
		}
	}
}

// TestSimulateStreamAttributed feeds three attributed simulators in
// turn on the VM's goroutine: each block size's statistics and report
// equal what MeasureConfigAttr measures alone.
func TestSimulateStreamAttributed(t *testing.T) {
	atLeastTwoCPUs(t)
	prog, cfgs := streamSetup(t)
	amap := attr.NewMap(prog.Layout)
	stats, reports, err := SimulateStream(context.Background(), nil, vmStream(t, prog, amap), cfgs, amap)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != len(cfgs) || len(reports) != len(cfgs) {
		t.Fatalf("got %d stats and %d reports, want %d of each", len(stats), len(reports), len(cfgs))
	}
	for i, cfg := range cfgs {
		st, rep, err := MeasureConfigAttr(context.Background(), prog, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stats[i], st) {
			t.Errorf("block %d: stream stats differ from MeasureConfigAttr\n got %s\nwant %s", cfg.BlockSize, stats[i], st)
		}
		if got, want := reports[i].Render(), rep.Render(); got != want {
			t.Errorf("block %d: stream report differs from MeasureConfigAttr\n got:\n%s\nwant:\n%s", cfg.BlockSize, got, want)
		}
	}
}

// TestSimulateStreamParTeeFault fails every ParTee sink at startup:
// SimulateStream returns the injected error once the stream ends, and
// no fan-out goroutine outlives it.
func TestSimulateStreamParTeeFault(t *testing.T) {
	atLeastTwoCPUs(t)
	prog, cfgs := streamSetup(t)
	stream := vmStream(t, prog, nil)
	enableFaults(t, "trace.partee:error")
	before := runtime.NumGoroutine()
	_, _, err := SimulateStream(context.Background(), nil, stream, cfgs, nil)
	var fe *faultinject.Error
	if !errors.As(err, &fe) {
		t.Fatalf("got %v, want the injected trace.partee fault", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the failed stream, %d before", n, before)
	}
}
