package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"falseshare/internal/experiments/pool"
	"falseshare/internal/obs"
	"falseshare/internal/sim/ksr"
)

// localRunner is an in-process CellRunner: it executes cells straight
// from an Enumeration, exactly like a fabric worker does — each cell
// under its own event collector, its payload carrying result, spans
// and events — but without crossing a process boundary: the cheapest
// way to prove runJobs' Runner path reassembles results, spans,
// events and errors faithfully. The pool calls it from one goroutine
// per cell, so cells run concurrently.
type localRunner struct {
	enum *Enumeration
	down bool // refuse every cell (simulates an unreachable fleet)
}

func (r *localRunner) RunCell(ctx context.Context, key string) (CellResult, error) {
	if r.down {
		return CellResult{}, errors.New("fleet unreachable")
	}
	var ev CellEvents
	data, spans, err, ok := r.enum.Run(WithEvents(ctx, &ev), key)
	if !ok {
		return CellResult{}, fmt.Errorf("no cell %q", key)
	}
	return CellResult{Key: key, Data: data, Spans: spans, Events: ev}, err
}

func remoteTestGrid() (Config, MatrixOptions, SectionSet) {
	cfg := DefaultConfig()
	cfg.Workers = 2
	mopt := MatrixOptions{Workloads: 2, Seed: 7, Procs: 2, Block: 32, ScaleMin: true}
	return cfg, mopt, SectionSet{Sections: []string{"matrix"}, Matrix: mopt}
}

// TestCollectDeterministic: two enumerations of the same spec produce
// the same keys in the same order — the property that lets a worker
// rebuild the coordinator's grid from the shipped spec alone.
func TestCollectDeterministic(t *testing.T) {
	cfg, _, set := remoteTestGrid()
	a, err := Collect(Config{ConfigSpec: cfg.ConfigSpec}, set)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(Config{ConfigSpec: cfg.ConfigSpec}, set)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 {
		t.Fatal("empty enumeration")
	}
	ka, kb := a.Keys(), b.Keys()
	if len(ka) != len(kb) {
		t.Fatalf("enumerations differ in size: %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("key %d differs: %q vs %q", i, ka[i], kb[i])
		}
	}
	for _, k := range ka {
		if !strings.HasPrefix(k, "matrix/") {
			t.Errorf("unexpected key %q", k)
		}
	}
}

// TestCollectSpecRoundTrip: the spec and section set survive JSON (the
// hello frame) without changing the grid.
func TestCollectSpecRoundTrip(t *testing.T) {
	cfg, _, set := remoteTestGrid()
	direct, err := Collect(Config{ConfigSpec: cfg.ConfigSpec}, set)
	if err != nil {
		t.Fatal(err)
	}

	sb, err := json.Marshal(cfg.ConfigSpec)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	var spec ConfigSpec
	var set2 SectionSet
	if err := json.Unmarshal(sb, &spec); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(tb, &set2); err != nil {
		t.Fatal(err)
	}
	wired, err := Collect(Config{ConfigSpec: spec}, set2)
	if err != nil {
		t.Fatal(err)
	}
	ka, kb := direct.Keys(), wired.Keys()
	if len(ka) != len(kb) {
		t.Fatalf("grid changed across the wire: %d vs %d cells", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("key %d changed across the wire: %q vs %q", i, ka[i], kb[i])
		}
	}
}

// TestCollectSectionOverlap: Table 3 re-enumerates Figure 4's sweep
// under the same keys; the enumeration dedups them (first add wins,
// sound because equal keys denote equal work).
func TestCollectSectionOverlap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SweepCounts = []int{1, 2}
	machine := ksr.DefaultConfig()
	set4 := SectionSet{Sections: []string{"fig4"}, Machine: machine}
	set3 := SectionSet{Sections: []string{"table3"}, Machine: machine}
	both := SectionSet{Sections: []string{"fig4", "table3"}, Machine: machine}
	e4, err := Collect(cfg, set4)
	if err != nil {
		t.Fatal(err)
	}
	e3, err := Collect(cfg, set3)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := Collect(cfg, both)
	if err != nil {
		t.Fatal(err)
	}
	if eb.Len() >= e4.Len()+e3.Len() {
		t.Errorf("no dedup across fig4+table3: %d cells from %d + %d", eb.Len(), e4.Len(), e3.Len())
	}
	if eb.Len() < e4.Len() || eb.Len() < e3.Len() {
		t.Errorf("union smaller than a member: %d vs %d/%d", eb.Len(), e4.Len(), e3.Len())
	}
}

func TestCollectUnknownSection(t *testing.T) {
	cfg, _, _ := remoteTestGrid()
	if _, err := Collect(cfg, SectionSet{Sections: []string{"fig99"}}); err == nil {
		t.Fatal("unknown section accepted")
	}
}

func TestEnumerationUnknownKey(t *testing.T) {
	cfg, _, set := remoteTestGrid()
	enum, err := Collect(Config{ConfigSpec: cfg.ConfigSpec}, set)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := enum.Run(context.Background(), "matrix/no-such-cell"); ok {
		t.Fatal("unknown key executed")
	}
}

// TestRunnerManifestMatchesLocal: routing a driver through a
// CellRunner yields a manifest byte-identical to the plain local run —
// the byte-identity contract at the package boundary, without any
// process machinery.
func TestRunnerManifestMatchesLocal(t *testing.T) {
	cfg, mopt, set := remoteTestGrid()
	local := manifestBytes(t, "matrix", cfg, func() (any, error) { return Matrix(cfg, mopt) })

	enum, err := Collect(Config{ConfigSpec: cfg.ConfigSpec}, set)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Runner = &localRunner{enum: enum}
	remote := manifestBytes(t, "matrix", rcfg, func() (any, error) { return Matrix(rcfg, mopt) })
	if !bytes.Equal(local, remote) {
		d1, d2 := firstDiff(local, remote)
		t.Errorf("runner manifest differs from local:\n--- local ---\n%s\n--- runner ---\n%s", d1, d2)
	}
}

// TestRunnerStoreShortCircuit: cells already in the store never reach
// the runner — a resumed distributed run with every cell stored
// completes even when the whole fleet is unreachable.
func TestRunnerStoreShortCircuit(t *testing.T) {
	cfg, mopt, set := remoteTestGrid()
	enum, err := Collect(Config{ConfigSpec: cfg.ConfigSpec}, set)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	rcfg := cfg
	rcfg.Runner = &localRunner{enum: enum}
	rcfg.Store = openStore(t, dir)
	want, err := Matrix(rcfg, mopt)
	if err != nil {
		t.Fatal(err)
	}

	rcfg2 := cfg
	rcfg2.Runner = &localRunner{down: true}
	rcfg2.Store = openStore(t, dir)
	got, err := Matrix(rcfg2, mopt)
	if err != nil {
		t.Fatalf("store-complete run touched the dead fleet: %v", err)
	}
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if !bytes.Equal(wb, gb) {
		t.Error("store-replayed results differ")
	}
}

// TestRunnerNilResultBackfill: a runner whose whole fleet is gone
// fails every cell it is asked for, and each cell must surface that
// error under its own key — never a panic or silent zero results.
func TestRunnerNilResultBackfill(t *testing.T) {
	cfg, mopt, set := remoteTestGrid()
	keys := remoteTestKeys(t, cfg, set)
	rcfg := cfg
	rcfg.Runner = brokenRunner{}
	_, err := Matrix(rcfg, mopt)
	failures := pool.Failures(err)
	if len(failures) != len(keys) {
		t.Fatalf("%d of %d cells failed, want all: %v", len(failures), len(keys), err)
	}
	for _, f := range failures {
		if !errors.Is(f.Err, errFleetDead) {
			t.Errorf("cell %s failed with %v, want the runner's error", f.Key, f.Err)
		}
	}
}

var errFleetDead = errors.New("fabric: all workers dead")

type brokenRunner struct{}

func (brokenRunner) RunCell(ctx context.Context, key string) (CellResult, error) {
	return CellResult{}, errFleetDead
}

// remoteTestKeys enumerates the grid's cell keys the way a worker does.
func remoteTestKeys(t *testing.T, cfg Config, set SectionSet) []string {
	t.Helper()
	enum, err := Collect(Config{ConfigSpec: cfg.ConfigSpec}, set)
	if err != nil {
		t.Fatal(err)
	}
	return enum.Keys()
}

// blip is a transient error: the pool retries it.
type blip struct{}

func (blip) Error() string   { return "blip" }
func (blip) Transient() bool { return true }

// flakyRunner fails the first dispatch of one cell with a transient
// error and runs everything else in process.
type flakyRunner struct {
	localRunner
	key     string
	tripped atomic.Bool
}

func (r *flakyRunner) RunCell(ctx context.Context, key string) (CellResult, error) {
	if key == r.key && r.tripped.CompareAndSwap(false, true) {
		return CellResult{}, blip{}
	}
	return r.localRunner.RunCell(ctx, key)
}

// TestRunnerTransientRetry: a runner's transient failure is retried by
// the pool under Config.Policy, exactly like a local cell's, and the
// job span counts the retry.
func TestRunnerTransientRetry(t *testing.T) {
	cfg, mopt, set := remoteTestGrid()
	enum, err := Collect(Config{ConfigSpec: cfg.ConfigSpec}, set)
	if err != nil {
		t.Fatal(err)
	}
	victim := enum.Keys()[0]
	want, err := Matrix(cfg, mopt)
	if err != nil {
		t.Fatal(err)
	}

	rec := obs.NewRecorder()
	rcfg := cfg
	rcfg.Ctx = obs.WithRecorder(context.Background(), rec)
	rcfg.Policy = pool.Policy{Retries: 1, Backoff: time.Millisecond}
	rcfg.Runner = &flakyRunner{localRunner: localRunner{enum: enum}, key: victim}
	got, err := Matrix(rcfg, mopt)
	if err != nil {
		t.Fatalf("transient runner failure was not retried: %v", err)
	}
	if !bytes.Equal(mustMarshal(t, got), mustMarshal(t, want)) {
		t.Error("retried run differs from the local run")
	}
	job := rec.Find("job:" + victim)
	if job == nil {
		t.Fatalf("no span for job %s", victim)
	}
	if n := job.Counters["retries"]; n != 1 {
		t.Errorf("job span retries = %d, want 1", n)
	}
}

// blockingRunner fails one cell at once and holds every other cell
// until its context ends, like a fleet busy with long cells.
type blockingRunner struct{ fail string }

func (r blockingRunner) RunCell(ctx context.Context, key string) (CellResult, error) {
	if key == r.fail {
		return CellResult{}, errors.New("cell broke")
	}
	<-ctx.Done()
	return CellResult{}, ctx.Err()
}

// TestRunnerFailFastCancelsInFlight: under a fail-fast policy one
// failing remote cell cancels the cells in flight, as it does local
// ones, and the run returns with every other cell cancelled or
// skipped.
func TestRunnerFailFastCancelsInFlight(t *testing.T) {
	cfg, mopt, set := remoteTestGrid()
	keys := remoteTestKeys(t, cfg, set)
	victim := keys[len(keys)/2]
	rcfg := cfg
	rcfg.Policy = pool.Policy{FailFast: true}
	rcfg.Runner = blockingRunner{fail: victim}

	done := make(chan error, 1)
	go func() {
		_, err := Matrix(rcfg, mopt)
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("fail-fast did not end the cells in flight")
	}
	failures := pool.Failures(err)
	if len(failures) != len(keys) {
		t.Fatalf("%d of %d cells failed, want all: %v", len(failures), len(keys), err)
	}
	for _, f := range failures {
		switch {
		case f.Key == victim:
			if !strings.Contains(f.Err.Error(), "cell broke") {
				t.Errorf("failing cell %s reports %v", f.Key, f.Err)
			}
		case !errors.Is(f.Err, context.Canceled) && !errors.Is(f.Err, pool.ErrSkipped):
			t.Errorf("cell %s failed with %v, want cancelled or skipped", f.Key, f.Err)
		}
	}
}
