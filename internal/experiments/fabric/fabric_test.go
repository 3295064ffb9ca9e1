package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"falseshare/internal/artifact"
	"falseshare/internal/experiments"
	"falseshare/internal/experiments/pool"
	"falseshare/internal/faultinject"
	"falseshare/internal/obs"
)

// The integration suite re-execs this test binary as the worker
// process: startCoordinator spawns it with the single argument
// workerArg, and TestMain intercepts such a child before any test
// runs, so a spawned worker speaks the fabric protocol on stdio
// exactly like fsexp -worker does. Respawns after chaos kills reuse
// the same argv. Any other re-exec of the binary, such as a fuzzing
// worker, runs as a test binary.
const workerArg = "-fabric-test-worker"

func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == workerArg {
		if err := RunWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "fabric test worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testGrid is the shared small grid: a 2-workload protocol/topology
// matrix at minimal scale — a few dozen cheap cells with full fabric
// coverage (cell addresses, spans, deterministic keys).
func testGrid() (experiments.Config, experiments.MatrixOptions, experiments.SectionSet) {
	cfg := experiments.DefaultConfig()
	cfg.Workers = 4
	mopt := experiments.MatrixOptions{Workloads: 2, Seed: 7, Procs: 2, Block: 32, ScaleMin: true}
	set := experiments.SectionSet{Sections: []string{"matrix"}, Matrix: mopt}
	return cfg, mopt, set
}

// gridKeys enumerates the grid's cell keys the same way a worker does.
func gridKeys(t *testing.T, cfg experiments.Config, set experiments.SectionSet) []string {
	t.Helper()
	enum, err := experiments.Collect(experiments.Config{ConfigSpec: cfg.ConfigSpec}, set)
	if err != nil {
		t.Fatal(err)
	}
	keys := enum.Keys()
	if len(keys) == 0 {
		t.Fatal("empty grid")
	}
	return keys
}

// startCoordinator wires the re-exec worker command into opt, starts
// the coordinator, and registers cleanup.
func startCoordinator(t *testing.T, opt Options) *Coordinator {
	t.Helper()
	if len(opt.WorkerCmd) == 0 {
		opt.WorkerCmd = []string{os.Args[0], workerArg}
	}
	c := NewCoordinator(opt)
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// openStore opens a cell store on dir, closed when the test ends.
func openStore(t *testing.T, dir string) *artifact.Store {
	t.Helper()
	st, err := artifact.Open(dir, artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// normManifest mirrors fsexp -reportdir and the determinism suite's
// normalization: the manifest with timing fields (started, wall_ms,
// wall_ns) and worker-count knobs (config.workers, the pool span's
// workers counter) removed — the only fields allowed to differ
// between a local and a distributed run.
func normManifest(t *testing.T, name string, cfg experiments.Config, fn func() (any, error)) []byte {
	t.Helper()
	rep, err := experiments.RunManifest("fsexp", name, experiments.ConfigMap(cfg), fn)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	delete(doc, "started")
	delete(doc, "wall_ms")
	if c, ok := doc["config"].(map[string]any); ok {
		delete(c, "workers")
	}
	scrubSpans(doc["spans"])
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func scrubSpans(v any) {
	spans, _ := v.([]any)
	for _, s := range spans {
		m, _ := s.(map[string]any)
		if m == nil {
			continue
		}
		delete(m, "wall_ns")
		delete(m, "wall_ms")
		if c, ok := m["counters"].(map[string]any); ok {
			delete(c, "workers")
			if len(c) == 0 {
				delete(m, "counters")
			}
		}
		scrubSpans(m["children"])
	}
}

func firstDiff(a, b []byte) (string, string) {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	window := func(x []byte) string {
		lo, hi := i-120, i+120
		if lo < 0 {
			lo = 0
		}
		if hi > len(x) {
			hi = len(x)
		}
		return string(x[lo:hi])
	}
	return window(a), window(b)
}

// TestFabricManifestByteIdentity is the tentpole contract and the
// satellite-3 property: a distributed matrix run — at one worker and
// at four — produces a manifest byte-identical to the single-process
// run, modulo timing.
func TestFabricManifestByteIdentity(t *testing.T) {
	cfg, mopt, set := testGrid()
	local := normManifest(t, "matrix", cfg, func() (any, error) { return experiments.Matrix(cfg, mopt) })

	for _, workers := range []int{1, 4} {
		rec := obs.NewRecorder()
		coord := startCoordinator(t, Options{Workers: workers, Spec: cfg.ConfigSpec, Set: set, Recorder: rec})
		fcfg := cfg
		fcfg.Runner = coord
		dist := normManifest(t, "matrix", fcfg, func() (any, error) { return experiments.Matrix(fcfg, mopt) })
		if !bytes.Equal(local, dist) {
			d1, d2 := firstDiff(local, dist)
			t.Errorf("-workers %d manifest differs from single-process:\n--- local ---\n%s\n--- fabric ---\n%s", workers, d1, d2)
		}
		st := coord.Stats()
		if st.Deaths != 0 || st.Reassigned != 0 {
			t.Errorf("-workers %d: clean run recorded deaths=%d reassigned=%d", workers, st.Deaths, st.Reassigned)
		}
		if err := coord.Close(); err != nil {
			t.Errorf("-workers %d: close: %v", workers, err)
		}
		// Only a worker lost mid-run fails its span; retiring at a
		// clean Close is not a failure.
		for _, name := range failedWorkerSpans(rec.Spans()) {
			t.Errorf("-workers %d: %s span marked failed after a clean run", workers, name)
		}
	}
}

// failedWorkerSpans names the worker:N spans carrying a failure class.
func failedWorkerSpans(spans []*obs.Span) []string {
	var out []string
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "worker:") {
			for _, class := range []string{"error", "cancelled", "timeout"} {
				if s.Counters[class] != 0 {
					out = append(out, s.Name)
					break
				}
			}
		}
		out = append(out, failedWorkerSpans(s.Children)...)
	}
	return out
}

// TestFabricWorkerKillResume kills one worker mid-cell (the coord.kill
// chaos point: deterministic, fires once) and requires the run to
// complete via reassignment with results identical to an undisturbed
// local run; then a resumed run over the store the coordinator filled
// must reproduce them again without recomputing anything.
func TestFabricWorkerKillResume(t *testing.T) {
	cfg, mopt, set := testGrid()
	keys := gridKeys(t, cfg, set)
	victim := keys[len(keys)/2]

	want, err := experiments.Matrix(cfg, mopt)
	if err != nil {
		t.Fatal(err)
	}

	set2, err := faultinject.Parse("coord.kill=" + victim + ":error:count=1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(set2)
	defer faultinject.Enable(nil)

	runDir := t.TempDir()
	coord := startCoordinator(t, Options{Workers: 2, Spec: cfg.ConfigSpec, Set: set})
	fcfg := cfg
	fcfg.Runner = coord
	fcfg.Store = openStore(t, runDir)
	got, err := experiments.Matrix(fcfg, mopt)
	if err != nil {
		var me *pool.MultiError
		if errors.As(err, &me) {
			for _, fe := range me.Errors {
				t.Errorf("cell %s failed: %v", fe.Key, fe.Err)
			}
		}
		t.Fatalf("run with worker kill failed: %v", err)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(nil)

	st := coord.Stats()
	if st.Deaths != 1 {
		t.Errorf("deaths = %d, want 1 (exactly one chaos kill)", st.Deaths)
	}
	if st.Reassigned != 1 {
		t.Errorf("reassigned = %d, want 1", st.Reassigned)
	}
	if st.Spawned != 3 {
		t.Errorf("spawned = %d, want 3 (2 workers + 1 respawn)", st.Spawned)
	}
	if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
		t.Error("results after worker kill differ from undisturbed run")
	}

	// Resume round trip: the store now holds every cell; a local
	// replay must serve all of them without touching a worker.
	store2 := openStore(t, runDir)
	if n := int(store2.Counters().Entries); n < len(keys) {
		t.Errorf("store has %d cells, want >= %d", n, len(keys))
	}
	rcfg := cfg
	rcfg.Workers = 1
	rcfg.Store = store2
	resumed, err := experiments.Matrix(rcfg, mopt)
	if err != nil {
		t.Fatalf("resume replay: %v", err)
	}
	if !bytes.Equal(mustJSON(t, resumed), mustJSON(t, want)) {
		t.Error("resumed results differ from original run")
	}
}

// TestFabricFaultPropagation: a -faults spec handed to the
// coordinator reaches spawned workers, and a worker.cell rule fires
// inside the worker process (this process never enables the fault
// set, so the injected error can only have crossed the wire).
func TestFabricFaultPropagation(t *testing.T) {
	cfg, mopt, set := testGrid()
	keys := gridKeys(t, cfg, set)
	victim := keys[0]
	if faultinject.Fire(context.Background(), "worker.cell", victim) != nil {
		t.Fatal("fault injection unexpectedly enabled in the test process")
	}

	coord := startCoordinator(t, Options{
		Workers: 2,
		Spec:    cfg.ConfigSpec,
		Set:     set,
		Faults:  "worker.cell=" + victim + ":error",
	})
	fcfg := cfg
	fcfg.Runner = coord
	_, err := experiments.Matrix(fcfg, mopt)
	if err == nil {
		t.Fatal("injected worker fault did not surface")
	}
	var me *pool.MultiError
	if !errors.As(err, &me) {
		t.Fatalf("error is %T, want *pool.MultiError: %v", err, err)
	}
	if len(me.Errors) != 1 {
		t.Fatalf("got %d failed cells, want exactly the victim: %v", len(me.Errors), me)
	}
	fe := me.Errors[0]
	if fe.Key != victim {
		t.Errorf("failed cell %s, want %s", fe.Key, victim)
	}
	if !strings.Contains(fe.Err.Error(), "injected fault at worker.cell") {
		t.Errorf("error %q does not carry the worker-side injection", fe.Err)
	}
	if faultinject.Fire(context.Background(), "worker.cell", victim) != nil {
		t.Error("worker fault spec leaked into the coordinator process")
	}
}

// TestFabricWorkerMeasuresEachProgramOnce runs Table 2 on one worker
// whose 57th VM run fails. Its 72 cells execute 56 distinct programs,
// so a worker that measures each program once, as a local run does,
// fails no cell.
func TestFabricWorkerMeasuresEachProgramOnce(t *testing.T) {
	cfg := experiments.DefaultConfig()
	cfg.Table2Blocks = []int64{32, 128}
	coord := startCoordinator(t, Options{
		Workers: 1,
		Spec:    cfg.ConfigSpec,
		Set:     experiments.SectionSet{Sections: []string{"table2"}},
		Faults:  "vm.run:error:after=56",
	})
	fcfg := cfg
	fcfg.Runner = coord
	if _, err := experiments.Table2(fcfg); err != nil {
		t.Errorf("the worker ran more than 56 VM runs: %v", err)
	}
}

// workerPids lists the coordinator's live spawned worker process ids
// (TCP workers have none).
func workerPids(c *Coordinator) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var pids []int
	for _, w := range c.workers {
		if w.cmd != nil && w.cmd.Process != nil {
			pids = append(pids, w.cmd.Process.Pid)
		}
	}
	return pids
}

// TestFabricKillReapsWorkers is satellite 2: Kill (the second-SIGINT
// path) leaves no orphaned worker processes.
func TestFabricKillReapsWorkers(t *testing.T) {
	cfg, _, set := testGrid()
	coord := startCoordinator(t, Options{Workers: 3, Spec: cfg.ConfigSpec, Set: set})
	pids := workerPids(coord)
	if len(pids) != 3 {
		t.Fatalf("got %d worker pids, want 3", len(pids))
	}
	for _, pid := range pids {
		if err := syscall.Kill(pid, 0); err != nil {
			t.Fatalf("worker %d not alive before Kill: %v", pid, err)
		}
	}
	coord.Kill()
	deadline := time.Now().Add(10 * time.Second)
	for _, pid := range pids {
		for {
			if err := syscall.Kill(pid, 0); err == syscall.ESRCH {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker %d still alive after Kill", pid)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	coord.Close()
}

// TestFabricChaosExit crashes every worker that picks up one poison
// cell (worker-side rules re-fire in replacement processes, so the
// cell stays poisoned): the fleet must survive — bounded reassignment
// fails the cell, respawns keep the rest of the grid running.
func TestFabricChaosExit(t *testing.T) {
	cfg, mopt, set := testGrid()
	keys := gridKeys(t, cfg, set)
	victim := keys[0]

	coord := startCoordinator(t, Options{
		Workers:   2,
		Spec:      cfg.ConfigSpec,
		Set:       set,
		Faults:    "worker.cell=" + victim + ":exit",
		MaxDeaths: 1,
	})
	fcfg := cfg
	fcfg.Runner = coord
	cells, err := experiments.Matrix(fcfg, mopt)
	var me *pool.MultiError
	if !errors.As(err, &me) || len(me.Errors) != 1 {
		t.Fatalf("want exactly the poison cell to fail, got %v", err)
	}
	if me.Errors[0].Key != victim {
		t.Errorf("failed cell %s, want %s", me.Errors[0].Key, victim)
	}
	if !strings.Contains(me.Errors[0].Err.Error(), "lost 2 workers") {
		t.Errorf("poison cell error %q does not report bounded reassignment", me.Errors[0].Err)
	}
	if n := len(cells); n != len(keys)-1 {
		t.Errorf("got %d completed cells, want %d (everything but the poison cell)", n, len(keys)-1)
	}
	st := coord.Stats()
	if st.Deaths < 1 {
		t.Errorf("deaths = %d, want >= 1 (each attempt crashes a worker)", st.Deaths)
	}
	// Both original workers crash on the poison cell, yet the other 11
	// cells complete — only possible if respawns kept the fleet alive.
	if st.Spawned < 3 {
		t.Errorf("spawned = %d, want >= 3 (respawns kept the fleet alive)", st.Spawned)
	}
}

// TestFabricChaosHang wedges every worker that picks up one cell; the
// per-cell deadline must detect the hang (heartbeats stay healthy — a
// hung cell is not a dead process), kill the worker and eventually
// fail the cell, while the rest of the grid completes.
func TestFabricChaosHang(t *testing.T) {
	cfg, mopt, set := testGrid()
	keys := gridKeys(t, cfg, set)
	victim := keys[len(keys)-1]

	coord := startCoordinator(t, Options{
		Workers:    2,
		Spec:       cfg.ConfigSpec,
		Set:        set,
		Faults:     "worker.cell=" + victim + ":hang",
		MaxDeaths:  1,
		JobTimeout: 2 * time.Second,
	})
	fcfg := cfg
	fcfg.Runner = coord
	_, err := experiments.Matrix(fcfg, mopt)
	var me *pool.MultiError
	if !errors.As(err, &me) || len(me.Errors) != 1 {
		t.Fatalf("want exactly the hung cell to fail, got %v", err)
	}
	if me.Errors[0].Key != victim {
		t.Errorf("failed cell %s, want %s", me.Errors[0].Key, victim)
	}
	if !strings.Contains(me.Errors[0].Err.Error(), "deadline") {
		t.Errorf("hung cell error %q does not mention the deadline", me.Errors[0].Err)
	}
	// At least the first hung worker's death is always accounted; the
	// second can race with shutdown (deaths during Close are deliberately
	// not counted), so >= 1.
	if st := coord.Stats(); st.Deaths < 1 {
		t.Errorf("deaths = %d, want >= 1 (hung worker killed)", st.Deaths)
	}
}

// TestFabricChaosCorrupt mangles the result frame for one cell: the
// coordinator must treat the undecodable worker as dead, reassign, and
// — since the corruption re-fires in every replacement — fail the cell
// after bounded reassignment instead of looping forever.
func TestFabricChaosCorrupt(t *testing.T) {
	cfg, mopt, set := testGrid()
	keys := gridKeys(t, cfg, set)
	victim := keys[0]

	coord := startCoordinator(t, Options{
		Workers:   2,
		Spec:      cfg.ConfigSpec,
		Set:       set,
		Faults:    "worker.send=" + victim + ":corrupt:count=1",
		MaxDeaths: 1,
	})
	fcfg := cfg
	fcfg.Runner = coord
	_, err := experiments.Matrix(fcfg, mopt)
	var me *pool.MultiError
	if !errors.As(err, &me) || len(me.Errors) != 1 {
		t.Fatalf("want exactly the corrupted cell to fail, got %v", err)
	}
	if me.Errors[0].Key != victim {
		t.Errorf("failed cell %s, want %s", me.Errors[0].Key, victim)
	}
	if st := coord.Stats(); st.Deaths < 1 {
		t.Errorf("deaths = %d, want >= 1 (corrupt frames kill the connection)", st.Deaths)
	}
}

// TestFabricFleetDeadFailsLaterRuns: once every worker is lost and the
// respawn budget is spent, the run in flight fails — and so does every
// later run, at once, instead of queueing cells no worker will take.
func TestFabricFleetDeadFailsLaterRuns(t *testing.T) {
	cfg, mopt, set := testGrid()
	keys := gridKeys(t, cfg, set)
	coord := startCoordinator(t, Options{
		Workers:   1,
		Spec:      cfg.ConfigSpec,
		Set:       set,
		Faults:    "worker.cell:exit",
		MaxDeaths: 100,
	})
	fcfg := cfg
	fcfg.Runner = coord
	if _, err := experiments.Matrix(fcfg, mopt); len(pool.Failures(err)) != len(keys) {
		t.Fatalf("first run over a crashing fleet: want every cell failed, got %v", err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := experiments.Matrix(fcfg, mopt)
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("second run hangs on a dead fleet")
	}
	failures := pool.Failures(err)
	if len(failures) != len(keys) {
		t.Fatalf("second run: %d of %d cells failed: %v", len(failures), len(keys), err)
	}
	for _, f := range failures {
		if !strings.Contains(f.Err.Error(), "fabric: all workers dead") {
			t.Errorf("cell %s failed with %v, want all workers dead", f.Key, f.Err)
		}
	}
}

// TestFabricCacheDedup is the cell-store acceptance on the fabric: a
// second run over the same grid serves every cell from the store
// (>= 90% required; 100% expected) without dispatching any, with
// identical results. That entries of another build never serve is
// the artifact store's own contract, tested there.
func TestFabricCacheDedup(t *testing.T) {
	cfg, mopt, set := testGrid()
	keys := gridKeys(t, cfg, set)
	dir := t.TempDir()

	runWith := func(st *artifact.Store) ([]experiments.MatrixCell, Stats, artifact.Counters) {
		t.Helper()
		coord := startCoordinator(t, Options{Workers: 2, Spec: cfg.ConfigSpec, Set: set})
		fcfg := cfg
		fcfg.Runner = coord
		fcfg.Store = st
		cells, err := experiments.Matrix(fcfg, mopt)
		if err != nil {
			t.Fatal(err)
		}
		coord.Close()
		return cells, coord.Stats(), st.Counters()
	}

	first, _, c1 := runWith(openStore(t, dir))
	if c1.Misses != int64(len(keys)) || c1.Hits != 0 {
		t.Errorf("cold run: hits=%d misses=%d, want 0/%d", c1.Hits, c1.Misses, len(keys))
	}

	second, st2, c2 := runWith(openStore(t, dir))
	if c2.Hits != int64(len(keys)) || c2.Misses != 0 {
		t.Errorf("warm run: hits=%d misses=%d, want %d/0", c2.Hits, c2.Misses, len(keys))
	}
	if st2.Cells != 0 {
		t.Errorf("warm run dispatched %d cells, want 0", st2.Cells)
	}
	if !bytes.Equal(mustJSON(t, first), mustJSON(t, second)) {
		t.Error("store-served results differ from computed ones")
	}

}

// TestCacheRoundTrip: cells the fleet computes round-trip through the
// -cache store with their span subtrees — a local replay of the store
// a distributed run filled serves every cell and yields that run's
// manifest byte for byte — while a grid the store never saw misses.
func TestCacheRoundTrip(t *testing.T) {
	cfg, mopt, set := testGrid()
	keys := gridKeys(t, cfg, set)
	dir := t.TempDir()

	coord := startCoordinator(t, Options{Workers: 2, Spec: cfg.ConfigSpec, Set: set})
	fcfg := cfg
	fcfg.Runner = coord
	fcfg.Store = openStore(t, dir)
	dist := normManifest(t, "matrix", fcfg, func() (any, error) { return experiments.Matrix(fcfg, mopt) })
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	if n := int(fcfg.Store.Counters().Entries); n != len(keys) {
		t.Fatalf("distributed run stored %d cells, want %d", n, len(keys))
	}

	rcfg := cfg
	rcfg.Store = openStore(t, dir)
	replayed := normManifest(t, "matrix", rcfg, func() (any, error) { return experiments.Matrix(rcfg, mopt) })
	if c := rcfg.Store.Counters(); c.Hits != int64(len(keys)) || c.Misses != 0 {
		t.Errorf("local replay: hits=%d misses=%d, want %d/0", c.Hits, c.Misses, len(keys))
	}
	if !bytes.Equal(dist, replayed) {
		d1, d2 := firstDiff(dist, replayed)
		t.Errorf("replayed manifest differs from the distributed run:\n--- fabric ---\n%s\n--- replayed ---\n%s", d1, d2)
	}

	other := mopt
	other.Seed++
	ocfg := cfg
	ocfg.Store = openStore(t, dir)
	if _, err := experiments.Matrix(ocfg, other); err != nil {
		t.Fatal(err)
	}
	if c := ocfg.Store.Counters(); c.Hits != 0 {
		t.Errorf("another grid hit %d cells it never stored", c.Hits)
	}
}

// TestCacheCorruptEntryIsMiss: a torn or tampered entry in the -cache
// store costs one dispatch, never an error — the coordinator sends
// exactly the damaged cells to the fleet, serves the rest, and the
// recomputed cells replace the damaged entries.
func TestCacheCorruptEntryIsMiss(t *testing.T) {
	cfg, mopt, set := testGrid()
	keys := gridKeys(t, cfg, set)
	dir := t.TempDir()

	runWith := func(st *artifact.Store) ([]experiments.MatrixCell, Stats) {
		t.Helper()
		coord := startCoordinator(t, Options{Workers: 2, Spec: cfg.ConfigSpec, Set: set})
		fcfg := cfg
		fcfg.Runner = coord
		fcfg.Store = st
		cells, err := experiments.Matrix(fcfg, mopt)
		if err != nil {
			t.Fatalf("damaged entries surfaced as an error: %v", err)
		}
		coord.Close()
		return cells, coord.Stats()
	}

	first, _ := runWith(openStore(t, dir))
	st := openStore(t, dir)
	files, _ := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if len(files) != len(keys) {
		t.Fatalf("expected %d entry files, found %d", len(keys), len(files))
	}
	// Tear one entry, and overwrite another with a third's intact
	// entry, whose recorded key no longer matches its address.
	if err := os.WriteFile(files[0], []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	other, err := os.ReadFile(files[2])
	if err == nil {
		err = os.WriteFile(files[1], other, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}

	second, fs := runWith(st)
	c := st.Counters()
	if c.CorruptDropped != 2 || c.Misses != 2 || c.Hits != int64(len(keys)-2) {
		t.Errorf("corrupt=%d misses=%d hits=%d, want 2/2/%d", c.CorruptDropped, c.Misses, c.Hits, len(keys)-2)
	}
	if fs.Cells != 2 {
		t.Errorf("dispatched %d cells, want the 2 damaged ones", fs.Cells)
	}
	if c.Entries != int64(len(keys)) {
		t.Errorf("store holds %d cells after the rerun, want %d", c.Entries, len(keys))
	}
	if !bytes.Equal(mustJSON(t, first), mustJSON(t, second)) {
		t.Error("results over a damaged store differ from computed ones")
	}
}

// TestFabricRefusesOtherBuild: with cells waiting for a worker, one
// whose ready frame names another build, or none, is dropped with
// both identities logged and never assigned a cell; a worker of this
// build then runs the whole grid.
func TestFabricRefusesOtherBuild(t *testing.T) {
	cfg, mopt, set := testGrid()
	var log syncBuffer
	coord := startCoordinator(t, Options{Listen: "127.0.0.1:0", Spec: cfg.ConfigSpec, Set: set, Stderr: &log})
	fcfg := cfg
	fcfg.Runner = coord
	type run struct {
		cells []experiments.MatrixCell
		err   error
	}
	done := make(chan run, 1)
	go func() {
		cells, err := experiments.Matrix(fcfg, mopt)
		done <- run{cells, err}
	}()

	for _, build := range []string{"another-build", ""} {
		conn, err := net.Dial("tcp", coord.Addr())
		if err != nil {
			t.Fatal(err)
		}
		fc := NewConn(conn, conn)
		if f, err := fc.Read(); err != nil || f.Type != TypeHello {
			t.Fatalf("want hello, got %v, %v", f, err)
		}
		if err := fc.Write(&Frame{Type: TypeReady, Cells: 1, Build: build}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		for {
			f, err := fc.Read()
			if err != nil {
				if errors.Is(err, os.ErrDeadlineExceeded) {
					t.Fatalf("worker of build %q was neither refused nor assigned", build)
				}
				break // refused: the coordinator closed the link
			}
			if f.Type == TypeAssign {
				t.Fatalf("worker of build %q was assigned %s", build, f.Key)
			}
		}
		conn.Close()
	}
	own, err := artifact.BuildID()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"another-build", "(none)", own} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("refusal log %q does not name %s", log.String(), want)
		}
	}

	go RunWorkerTCP(coord.Addr())
	var got run
	select {
	case got = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("the run did not finish on a worker of this build")
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	want, err := experiments.Matrix(cfg, mopt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, got.cells), mustJSON(t, want)) {
		t.Error("results differ from a local run")
	}
	if st := coord.Stats(); st.Attached != 3 {
		t.Errorf("attached=%d, want 3", st.Attached)
	}
}

// syncBuffer is a bytes.Buffer safe for the coordinator's goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestFabricTCPWorker attaches a worker over TCP (fsexp -worker
// -connect) instead of spawning: same protocol, same results.
func TestFabricTCPWorker(t *testing.T) {
	cfg, mopt, set := testGrid()
	coord := startCoordinator(t, Options{Listen: "127.0.0.1:0", Spec: cfg.ConfigSpec, Set: set})
	if coord.Addr() == "" {
		t.Fatal("no listener address")
	}
	workerErr := make(chan error, 1)
	go func() { workerErr <- RunWorkerTCP(coord.Addr()) }()

	fcfg := cfg
	fcfg.Runner = coord
	got, err := experiments.Matrix(fcfg, mopt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.Matrix(cfg, mopt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
		t.Error("TCP-worker results differ from local run")
	}
	st := coord.Stats()
	if st.Attached != 1 || st.Spawned != 0 {
		t.Errorf("attached=%d spawned=%d, want 1/0", st.Attached, st.Spawned)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-workerErr:
		if err != nil {
			t.Errorf("TCP worker exited with %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("TCP worker did not exit after shutdown")
	}
}

// TestFabricTCPWorkerRetriesUntilCoordinatorUp is the start-order
// regression test: a worker launched before the coordinator's
// -listen socket exists must retry with backoff, saying so on its
// stderr, and attach once the listener appears, instead of dying on
// the first refused dial.
func TestFabricTCPWorkerRetriesUntilCoordinatorUp(t *testing.T) {
	// Tighten the dial policy so the test is fast; the schedule is
	// still real retries against a real refused port.
	defer func(to time.Duration, n int, b, m time.Duration, w io.Writer) {
		tcpDialTimeout, tcpDialAttempts, tcpDialBackoff, tcpDialBackoffMax, tcpDialLog = to, n, b, m, w
	}(tcpDialTimeout, tcpDialAttempts, tcpDialBackoff, tcpDialBackoffMax, tcpDialLog)
	tcpDialTimeout = 2 * time.Second
	tcpDialAttempts = 60
	tcpDialBackoff = 25 * time.Millisecond
	tcpDialBackoffMax = 100 * time.Millisecond
	var dialLog syncBuffer
	tcpDialLog = &dialLog

	// Reserve an address nothing is listening on yet.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	workerErr := make(chan error, 1)
	go func() { workerErr <- RunWorkerTCP(addr) }()
	// Let at least one dial fail against the closed port before the
	// coordinator comes up.
	time.Sleep(60 * time.Millisecond)
	select {
	case err := <-workerErr:
		t.Fatalf("worker gave up before the coordinator started: %v", err)
	default:
	}
	if want := "fabric: worker: dial " + addr + " failed ("; !strings.Contains(dialLog.String(), want) {
		t.Errorf("worker reported no retry; its log is %q, want a line with %q", dialLog.String(), want)
	}

	cfg, mopt, set := testGrid()
	coord := startCoordinator(t, Options{Listen: addr, Spec: cfg.ConfigSpec, Set: set})

	fcfg := cfg
	fcfg.Runner = coord
	got, err := experiments.Matrix(fcfg, mopt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.Matrix(cfg, mopt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
		t.Error("late-coordinator results differ from local run")
	}
	if st := coord.Stats(); st.Attached != 1 {
		t.Errorf("attached=%d, want 1", st.Attached)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-workerErr:
		if err != nil {
			t.Errorf("TCP worker exited with %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("TCP worker did not exit after shutdown")
	}
}
