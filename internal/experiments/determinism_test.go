package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"falseshare/internal/faultinject"
	"falseshare/internal/obs"
	"falseshare/internal/sim/ksr"
)

// The determinism suite is this PR's core correctness guarantee: for
// every figure and table, a parallel run (-j 8) must produce a
// RunManifest byte-identical to the serial run (-j 1) — same results,
// same span-tree shape, same counters — modulo wall-clock fields.
// Anything else means the fan-out changed what the evaluation
// computes, not just how fast.

// determinismConfig is a reduced but non-trivial configuration: small
// sweeps, two block sizes, full benchmark coverage.
func determinismConfig(workers int) Config {
	cfg := DefaultConfig()
	cfg.Workers = workers
	cfg.SweepCounts = []int{1, 2, 4}
	cfg.Fig3Blocks = []int64{32, 128}
	cfg.Table2Blocks = []int64{32, 128}
	return cfg
}

// manifestBytes runs fn under a fresh recorder exactly like fsexp
// -reportdir does and returns the manifest normalized for comparison:
// timing fields (started, wall_ms, wall_ns) and the worker-count
// knobs (config.workers, the pool span's workers counter) removed —
// those are the only fields allowed to differ across -j.
func manifestBytes(t *testing.T, name string, cfg Config, fn func() (any, error)) []byte {
	t.Helper()
	rep, err := RunManifest("fsexp", name, ConfigMap(cfg), fn)
	if err != nil {
		t.Fatalf("%s (workers=%d): %v", name, cfg.Workers, err)
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

// scrubSpans strips wall times and the workers counter from a decoded
// span forest, recursively.
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

// assertDeterministic runs one experiment at -j 1 and -j 8 and
// byte-compares the normalized manifests.
func assertDeterministic(t *testing.T, name string, fn func(cfg Config) (any, error)) {
	t.Helper()
	if obs.Default() != nil {
		t.Fatal("test requires no installed recorder")
	}
	serialCfg, parCfg := determinismConfig(1), determinismConfig(8)
	serial := manifestBytes(t, name, serialCfg, func() (any, error) { return fn(serialCfg) })
	parallel := manifestBytes(t, name, parCfg, func() (any, error) { return fn(parCfg) })
	if !bytes.Equal(serial, parallel) {
		d1, d2 := firstDiff(serial, parallel)
		t.Errorf("%s: -j 8 manifest differs from -j 1:\n--- j1 ---\n%s\n--- j8 ---\n%s", name, d1, d2)
	}
}

// firstDiff returns a context window around the first differing byte.
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

func TestDeterminismFig3(t *testing.T) {
	assertDeterministic(t, "fig3", func(cfg Config) (any, error) { return Figure3(cfg) })
}

func TestDeterminismTable2(t *testing.T) {
	assertDeterministic(t, "table2", func(cfg Config) (any, error) { return Table2(cfg) })
}

func TestDeterminismFig4(t *testing.T) {
	machine := ksr.DefaultConfig()
	assertDeterministic(t, "fig4", func(cfg Config) (any, error) { return Figure4(cfg, machine) })
}

func TestDeterminismTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-suite sweep")
	}
	machine := ksr.DefaultConfig()
	assertDeterministic(t, "table3", func(cfg Config) (any, error) { return Table3(cfg, machine) })
}

// TestDeterminismAggregates covers the §1/§5 headline numbers the
// same way (cheap, so it rides along even though the issue names only
// the four figures/tables).
func TestDeterminismAggregates(t *testing.T) {
	assertDeterministic(t, "aggregates", func(cfg Config) (any, error) { return ComputeAggregates(cfg) })
}

// TestDeterminismMatrix extends the manifest guarantee to the
// protocol/topology matrix: a -matrix -j 8 run's manifest must be
// byte-identical to -j 1 modulo timing, including every cell's
// per-protocol counters and attributed TopFS objects.
func TestDeterminismMatrix(t *testing.T) {
	opt := MatrixOptions{Workloads: 3, Seed: 11, Procs: 4, Block: 64, ScaleMin: true}
	assertDeterministic(t, "matrix", func(cfg Config) (any, error) { return Matrix(cfg, opt) })
}

// TestDeterminismEvents extends the guarantee to the event log: with
// Verify and Diag on — and a seeded miscompile, so safe mode has
// objects to degrade — the events Figure 3 and the matrix append are
// byte-identical at -j 1 and at -j 8, because runJobs appends every
// cell's events in submission order whatever the schedule.
func TestDeterminismEvents(t *testing.T) {
	s, err := faultinject.Parse("transform.corrupt:error")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(s)
	t.Cleanup(func() { faultinject.Enable(nil) })
	opt := MatrixOptions{Workloads: 2, Seed: 11, Procs: 4, Block: 64, ScaleMin: true}
	withEvents := func(cfg Config) Config {
		cfg.Fig3Blocks = []int64{128}
		cfg.Verify, cfg.Diag = true, true
		cfg.Events = &CellEvents{}
		return cfg
	}
	run := func(name string, cfg Config) []byte {
		if _, err := Figure3(cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := Matrix(cfg, opt); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if DegradedObjects(cfg.Events.Degraded) == 0 || len(cfg.Events.Diag) == 0 {
			t.Fatalf("%s: log has %d degrade and %d attribution events; want both", name, len(cfg.Events.Degraded), len(cfg.Events.Diag))
		}
		return mustMarshal(t, cfg.Events)
	}
	serial := run("j1", withEvents(determinismConfig(1)))
	parallel := run("j8", withEvents(determinismConfig(8)))
	if !bytes.Equal(serial, parallel) {
		d1, d2 := firstDiff(serial, parallel)
		t.Errorf("-j 8 event log differs from -j 1:\n--- j1 ---\n%s\n--- j8 ---\n%s", d1, d2)
	}
}

// TestDeterminismRenderedOutput pins the user-visible text too: the
// rendered Figure 3 and Table 2 must be identical at any -j.
func TestDeterminismRenderedOutput(t *testing.T) {
	cells1, err := Figure3(determinismConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	cells8, err := Figure3(determinismConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := RenderFigure3(cells1), RenderFigure3(cells8); a != b {
		t.Errorf("rendered Figure 3 differs between -j 1 and -j 8:\n%s\n---\n%s", a, b)
	}
}
