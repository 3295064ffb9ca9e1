package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"falseshare/internal/artifact"
	"falseshare/internal/experiments/pool"
	"falseshare/internal/faultinject"
	"falseshare/internal/obs"
	"falseshare/internal/sim/ksr"
)

// openStore opens a cell store on dir, closed when the test ends.
func openStore(t testing.TB, dir string) *artifact.Store {
	t.Helper()
	st, err := artifact.Open(dir, artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// storedCells counts the entries a store holds.
func storedCells(st *artifact.Store) int { return int(st.Counters().Entries) }

type storeCellT struct {
	Prog string `json:"prog"`
	Miss int64  `json:"miss"`
}

// storeKey is the key of storeJob's cell.
const storeKey = "fig3/maxflow/N/b128"

// storeJob is one job that records a span and counts its executions.
func storeJob(runs *int) pool.Job[storeCellT] {
	return pool.Job[storeCellT]{
		Key: storeKey,
		Run: func(ctx context.Context) (storeCellT, error) {
			*runs++
			sp := obs.BeginCtx(ctx, "measure")
			sp.Set("instrs", 42)
			sp.End()
			return storeCellT{Prog: "maxflow", Miss: 11}, nil
		},
	}
}

// runRecorded runs jobs through runJobs under a fresh recorder and
// returns the results with the recorded span forest, timing zeroed.
func runRecorded(t *testing.T, cfg Config, jobs []pool.Job[storeCellT]) ([]storeCellT, []*obs.Span) {
	t.Helper()
	rec := obs.NewRecorder()
	cfg.Ctx = obs.WithRecorder(cfg.Ctx, rec)
	res, err := runJobs(cfg, "t", nil, jobs)
	if err != nil {
		t.Fatal(err)
	}
	spans := rec.Spans()
	scrubTimes(spans)
	return res, spans
}

func scrubTimes(spans []*obs.Span) {
	for _, s := range spans {
		s.Wall = 0
		s.Started = time.Time{}
		scrubTimes(s.Children)
	}
}

// TestStoreHitGraftsSpans: a stored job runs once; a second run over
// the same store returns the stored result without running it, with
// the original span subtree grafted into the new run's tree.
func TestStoreHitGraftsSpans(t *testing.T) {
	dir := t.TempDir()
	var runs int
	cfg := Config{Workers: 1, Store: openStore(t, dir)}
	first, firstSpans := runRecorded(t, cfg, []pool.Job[storeCellT]{storeJob(&runs)})
	if runs != 1 || storedCells(cfg.Store) != 1 {
		t.Fatalf("runs = %d, stored = %d; want 1, 1", runs, storedCells(cfg.Store))
	}

	cfg.Store = openStore(t, dir)
	second, secondSpans := runRecorded(t, cfg, []pool.Job[storeCellT]{storeJob(&runs)})
	if runs != 1 {
		t.Fatalf("a stored cell re-ran (runs = %d)", runs)
	}
	if first[0] != second[0] {
		t.Errorf("replayed result differs: %+v vs %+v", first[0], second[0])
	}
	if !reflect.DeepEqual(firstSpans, secondSpans) {
		t.Errorf("span trees differ:\nfirst:  %+v\nsecond: %+v", firstSpans, secondSpans)
	}
	if got := secondSpans[0].Find("measure"); got == nil || got.Counter("instrs") != 42 {
		t.Errorf("stored span subtree not grafted: %+v", secondSpans)
	}
}

// TestStoreRoundTrip: a stored cell survives closing and reopening
// the store and decodes to the value that was stored; an address
// never stored stays a miss.
func TestStoreRoundTrip(t *testing.T) {
	type cell struct {
		Prog  string `json:"prog"`
		Miss  int64  `json:"miss"`
		Ratio float64
	}
	dir := t.TempDir()
	want := cell{Prog: "maxflow", Miss: 12345, Ratio: 1.5}
	job := pool.Job[cell]{Key: storeKey, Run: func(ctx context.Context) (cell, error) {
		return want, nil
	}}
	st := openStore(t, dir)
	if _, err := runJobs(Config{Workers: 1, Store: st}, "t", nil, []pool.Job[cell]{job}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	if n := storedCells(st2); n != 1 {
		t.Fatalf("reopened store holds %d cells, want 1", n)
	}
	got, _, ok := loadCell[cell](context.Background(), st2, job.Key, cellAddress(Config{}, job.Key, nil))
	if !ok {
		t.Fatal("cell missing after reopen")
	}
	if got != want {
		t.Errorf("round trip: got %+v, want %+v", got, want)
	}
	other := Config{ConfigSpec: ConfigSpec{Scale: 2}}
	if _, _, ok := loadCell[cell](context.Background(), st2, job.Key, cellAddress(other, job.Key, nil)); ok {
		t.Error("hit for an address never stored")
	}
}

// TestStoreSpanRoundTrip: a stored span subtree — wall time, counters
// and children — reads back intact from a reopened store.
func TestStoreSpanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spans := []*obs.Span{{
		Name:     "measure",
		Wall:     3 * time.Millisecond,
		Counters: map[string]int64{"instrs": 42},
		Children: []*obs.Span{{Name: "vm", Counters: map[string]int64{"refs": 7}}},
	}}
	st := openStore(t, dir)
	storeCell(context.Background(), st, "t:addr", CellResult{Key: "k", Data: json.RawMessage(`{}`), Spans: spans})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, p, ok := loadCell[storeCellT](context.Background(), openStore(t, dir), "k", "t:addr")
	if !ok {
		t.Fatal("cell missing after reopen")
	}
	got := p.Spans
	if len(got) != 1 || got[0].Name != "measure" || got[0].Counters["instrs"] != 42 {
		t.Fatalf("span lost in round trip: %+v", got)
	}
	if len(got[0].Children) != 1 || got[0].Children[0].Counters["refs"] != 7 {
		t.Fatalf("child span lost: %+v", got[0].Children)
	}
	if got[0].Wall != 3*time.Millisecond {
		t.Errorf("wall = %v, want 3ms", got[0].Wall)
	}
}

// TestStoreStalePayloadIsMiss: a stored payload whose result no longer
// decodes into the job's type, or that was stored for another key,
// falls through to the job.
func TestStoreStalePayloadIsMiss(t *testing.T) {
	st := openStore(t, t.TempDir())
	for name, p := range map[string]CellResult{
		"undecodable": {Key: storeKey, Data: json.RawMessage(`"a plain string, not a cell"`)},
		"other key":   {Key: "fig3/maxflow/C/b128", Data: json.RawMessage(`{"prog":"maxflow","miss":99}`)},
	} {
		storeCell(context.Background(), st, cellAddress(Config{}, storeKey, nil), p)
		var runs int
		got, err := runJobs(Config{Workers: 1, Store: st}, "t", nil, []pool.Job[storeCellT]{storeJob(&runs)})
		if err != nil {
			t.Fatal(err)
		}
		if runs != 1 || got[0].Miss != 11 {
			t.Errorf("%s: runs = %d, miss = %d; the stale payload must fall through to the job", name, runs, got[0].Miss)
		}
	}
}

// TestStoreFailureNotStored: a failed job leaves no entry, so a
// resumed run retries it.
func TestStoreFailureNotStored(t *testing.T) {
	st := openStore(t, t.TempDir())
	job := pool.Job[storeCellT]{Key: "k", Run: func(ctx context.Context) (storeCellT, error) {
		return storeCellT{}, errors.New("boom")
	}}
	if _, err := runJobs(Config{Workers: 1, Store: st}, "t", nil, []pool.Job[storeCellT]{job}); err == nil {
		t.Fatal("want error")
	}
	if n := storedCells(st); n != 0 {
		t.Errorf("failure was stored (%d entries)", n)
	}
}

// TestStoreCorruptEntryIsMiss: a torn entry costs one recomputation,
// never an error, and is dropped from disk and counted.
func TestStoreCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	var runs int
	jobs := []pool.Job[storeCellT]{storeJob(&runs)}
	if _, err := runJobs(Config{Workers: 1, Store: st}, "t", nil, jobs); err != nil {
		t.Fatal(err)
	}
	var files []string
	filepath.Walk(dir, func(p string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			files = append(files, p)
		}
		return nil
	})
	if len(files) != 1 {
		t.Fatalf("expected 1 entry file, found %v", files)
	}
	if err := os.WriteFile(files[0], []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := runJobs(Config{Workers: 1, Store: st}, "t", nil, jobs)
	if err != nil {
		t.Fatalf("corrupt entry surfaced as an error: %v", err)
	}
	if runs != 2 || got[0].Miss != 11 {
		t.Errorf("runs = %d, result %+v; the corrupt entry must recompute", runs, got[0])
	}
	if n := st.Counters().CorruptDropped; n != 1 {
		t.Errorf("CorruptDropped = %d, want 1", n)
	}
}

// unreplayable are the damages a stored payload can carry while its
// entry still validates, since the store hashes only build, schema and
// key: a null span in the tree, and an attribution event without its
// report. Each edits a payload decoded as JSON.
var unreplayable = []struct {
	name string
	edit func(p map[string]any)
}{
	{"null span", func(p map[string]any) {
		spans, _ := p["spans"].([]any)
		p["spans"] = append([]any{nil}, spans...)
	}},
	{"diag without report", func(p map[string]any) {
		p["events"].(map[string]any)["diag"].([]any)[0].(map[string]any)["report"] = nil
	}},
}

// damaged returns the payload raw with edit applied.
func damaged(t testing.TB, raw []byte, edit func(map[string]any)) []byte {
	t.Helper()
	var p map[string]any
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatal(err)
	}
	edit(p)
	return mustMarshal(t, p)
}

// TestStoreUnreplayablePayloadIsMiss: a stored Figure 3 cell whose
// payload carries an unreplayable damage is a miss, not a crash of the
// run's recorder or a silent gap in the diagnosis: the cell recomputes
// under a verbose recorder, overwrites the entry, and the run's
// results and diagnosis match the run that filled the store.
func TestStoreUnreplayablePayloadIsMiss(t *testing.T) {
	const key = "fig3/fmm/N/b128"
	const stale = "store: stale cell " + key + "; recomputing"
	for _, u := range unreplayable {
		t.Run(u.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := smallFig3()
			cfg.Workers = 1 // one goroutine writes the log
			cfg.Diag = true
			run := func() ([]Fig3Cell, string, string, artifact.Counters) {
				t.Helper()
				var log bytes.Buffer
				rec := obs.NewRecorder()
				rec.Verbose, rec.LogW = true, &log
				c := cfg
				c.Store = openStore(t, dir)
				c.Events = &CellEvents{}
				c.Ctx = obs.WithRecorder(context.Background(), rec)
				cells, err := Figure3(c)
				if err != nil {
					t.Fatal(err)
				}
				counters := c.Store.Counters()
				if err := c.Store.Close(); err != nil {
					t.Fatal(err)
				}
				return cells, RenderDiag(c.Events.Diag), log.String(), counters
			}
			want, wantDiag, _, fill := run()
			n := fill.Misses
			if fill.Hits != 0 || n == 0 {
				t.Fatalf("filling run: counters %+v, want only misses", fill)
			}

			st := openStore(t, dir)
			addr := cellAddress(cfg, key, nil)
			raw, ok := st.Get(cellSchema, addr)
			if !ok {
				t.Fatalf("no stored cell %s", key)
			}
			if err := st.Put(context.Background(), cellSchema, addr, damaged(t, raw, u.edit)); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			got, diag, log, c := run()
			if !strings.Contains(log, stale) {
				t.Errorf("the damaged cell was replayed, not recomputed")
			}
			if c.Hits != n-1 || c.Misses != 1 || c.CorruptDropped != 1 {
				t.Errorf("run over the damaged entry: counters %+v, want hits=%d misses=1 corrupt=1", c, n-1)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("results differ from the filling run:\n%+v\n%+v", got, want)
			}
			if diag != wantDiag {
				t.Errorf("diagnosis differs from the filling run:\n%s\n---\n%s", diag, wantDiag)
			}
			if _, _, log, c := run(); strings.Contains(log, "stale cell") || c.Hits != n || c.Misses != 0 {
				t.Errorf("the recomputed cell did not replace the damaged entry: counters %+v", c)
			}
		})
	}
}

// TestCellAddress pins the one store key of a cell: stable, and
// sensitive to the cell key, to every spec setting that changes what
// a cell computes and to the section's parameters; blind to the
// worker count, to the grid lists, which the key already names, and
// to -diag in the sections that never attribute.
func TestCellAddress(t *testing.T) {
	const key = "fig4/raytrace/N/p4"
	base := DefaultConfig()
	machine := ksr.DefaultConfig()
	a := cellAddress(base, key, machine)
	if b := cellAddress(base, key, machine); b != a {
		t.Errorf("address not stable: %q vs %q", a, b)
	}
	same := base
	same.Workers = 8
	same.Fig3Blocks, same.Table2Blocks, same.SweepCounts = []int64{64}, nil, []int{4}
	if b := cellAddress(same, key, machine); b != a {
		t.Errorf("address depends on the workers or the grid lists:\n%s\n%s", a, b)
	}

	for name, change := range map[string]func(*Config){
		"scale":  func(c *Config) { c.Scale = 2 },
		"budget": func(c *Config) { c.StepBudget = 1_000_000 },
		"verify": func(c *Config) { c.Verify = true },
		"diag":   func(c *Config) { c.Diag = true },
	} {
		c := base
		change(&c)
		if cellAddress(c, key, machine) == a {
			t.Errorf("address ignores %s", name)
		}
	}
	if cellAddress(base, "fig4/raytrace/N/p8", machine) == a {
		t.Error("address ignores the key")
	}
	bigger := machine
	bigger.CacheSize *= 2
	if cellAddress(base, key, bigger) == a || cellAddress(base, key, nil) == a {
		t.Error("address ignores the KSR machine")
	}
	mopt := MatrixOptions{}.withDefaults()
	reseeded := mopt
	reseeded.Seed++
	if cellAddress(base, key, mopt) == cellAddress(base, key, reseeded) {
		t.Error("address ignores the matrix options")
	}

	// -diag enters the addresses of the sections that attribute misses
	// (fig3, table2 and matrix; see "diag" above) and no others: a
	// -diag rerun replays every cell of the aggregates and Figure 4
	// from a store a plain run filled, and none of Figure 3's.
	t.Run("diag", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Workers = 4
		cfg.SweepCounts = []int{1, 2}
		cfg.Fig3Blocks = []int64{128}
		cfg.Store = openStore(t, t.TempDir())
		plain := func(cfg Config) {
			t.Helper()
			if _, err := ComputeAggregates(cfg); err != nil {
				t.Fatal(err)
			}
			if _, err := Figure4(cfg, machine); err != nil {
				t.Fatal(err)
			}
		}
		fig3 := func(cfg Config) {
			t.Helper()
			if _, err := Figure3(cfg); err != nil {
				t.Fatal(err)
			}
		}
		plain(cfg)
		cells := cfg.Store.Counters().Misses
		fig3(cfg)
		cfg.Diag = true
		plain(cfg)
		if c := cfg.Store.Counters(); c.Hits != cells {
			t.Errorf("a -diag rerun replayed %d of the aggregates' and Figure 4's %d cells", c.Hits, cells)
		}
		before := cfg.Store.Counters()
		fig3(cfg)
		if c := cfg.Store.Counters(); c.Hits != before.Hits || c.Misses != before.Misses+12 {
			t.Errorf("a -diag rerun of Figure 3 replayed plain cells: %+v, then %+v", before, c)
		}
	})
}

// TestStoreSkipsCompileCost: compile-cost timings are neither looked
// up in nor written to the cell store, so every run measures afresh.
func TestStoreSkipsCompileCost(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.Store = openStore(t, t.TempDir())
	if _, err := CompileCost(cfg); err != nil {
		t.Fatal(err)
	}
	if c := cfg.Store.Counters(); c != (artifact.Counters{}) {
		t.Errorf("compile cost touched the cell store: %+v", c)
	}
}

// smallFig3 is a 12-cell Figure 3 configuration for the store tests.
func smallFig3() Config {
	cfg := DefaultConfig()
	cfg.Workers = 4
	cfg.Fig3Blocks = []int64{128}
	return cfg
}

// TestStoreScaleChangeRecomputes: the scale is part of every cell's
// address, so a run at another scale over the same store
// recomputes every cell and matches a clean run at that scale.
func TestStoreScaleChangeRecomputes(t *testing.T) {
	dir := t.TempDir()
	cfg := smallFig3()
	cfg.Store = openStore(t, dir)
	one, err := Figure3(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Scale = 2
	cfg.Store = openStore(t, dir)
	two, err := Figure3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c := cfg.Store.Counters(); c.Hits != 0 || int(c.Misses) != len(two) {
		t.Errorf("scale-2 run over a scale-1 store: hits=%d misses=%d, want 0/%d", c.Hits, c.Misses, len(two))
	}
	clean := smallFig3()
	clean.Scale = 2
	want, err := Figure3(clean)
	if err != nil {
		t.Fatal(err)
	}
	if RenderFigure3(two) != RenderFigure3(want) {
		t.Error("scale-2 run over a scale-1 store differs from a clean scale-2 run")
	}
	if RenderFigure3(two) == RenderFigure3(one) {
		t.Error("scale 2 renders like scale 1; the test no longer tells stale cells apart")
	}
}

// TestStoreReplaysDegradeEvents: a cell's safe-mode degradations are
// stored with it, so a replay with faults off reports exactly what
// the faulty run recorded.
func TestStoreReplaysDegradeEvents(t *testing.T) {
	dir := t.TempDir()
	cfg := smallFig3()
	cfg.Verify = true
	cfg.Store = openStore(t, dir)
	cfg.Events = &CellEvents{}
	s, err := faultinject.Parse("transform.corrupt:error")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(s)
	_, err = Figure3(cfg)
	faultinject.Enable(nil)
	if err != nil {
		t.Fatal(err)
	}
	computed := cfg.Events.Degraded
	if DegradedObjects(computed) == 0 {
		t.Fatal("the seeded miscompile degraded nothing; the test has no events to replay")
	}

	cfg.Store = openStore(t, dir)
	cfg.Events = &CellEvents{}
	if _, err := Figure3(cfg); err != nil {
		t.Fatal(err)
	}
	if c := cfg.Store.Counters(); c.Misses != 0 {
		t.Fatalf("replay recomputed %d cells", c.Misses)
	}
	if a, b := mustMarshal(t, computed), mustMarshal(t, cfg.Events.Degraded); !bytes.Equal(a, b) {
		t.Errorf("replayed degrade events differ:\ncomputed %s\nreplayed %s", a, b)
	}
}

// TestStoreReplaysDiag: the attribution a Diag run records is stored
// with each cell, so the rendered diagnosis and the per-section
// attribution are byte-identical between a computed run and its
// replay.
func TestStoreReplaysDiag(t *testing.T) {
	dir := t.TempDir()
	cfg := smallFig3()
	cfg.Diag = true
	cfg.Store = openStore(t, dir)
	cfg.Events = &CellEvents{}
	if _, err := Figure3(cfg); err != nil {
		t.Fatal(err)
	}
	computed := cfg.Events.Diag
	if len(computed) == 0 {
		t.Fatal("Diag run recorded no attribution")
	}

	cfg.Store = openStore(t, dir)
	cfg.Events = &CellEvents{}
	if _, err := Figure3(cfg); err != nil {
		t.Fatal(err)
	}
	if c := cfg.Store.Counters(); c.Misses != 0 {
		t.Fatalf("replay recomputed %d cells", c.Misses)
	}
	if a, b := RenderDiag(computed), RenderDiag(cfg.Events.Diag); a != b {
		t.Errorf("replayed diagnosis differs:\n%s\n---\n%s", a, b)
	}
	if a, b := mustMarshal(t, computed), mustMarshal(t, cfg.Events.Diag); !bytes.Equal(a, b) {
		t.Error("replayed attribution differs")
	}
}

// TestStoreDiagMismatchMisses: Diag is part of the address, so a
// store filled without it serves no cell to a Diag run — every cell
// recomputes and records its attribution.
func TestStoreDiagMismatchMisses(t *testing.T) {
	dir := t.TempDir()
	cfg := smallFig3()
	cfg.Store = openStore(t, dir)
	cells, err := Figure3(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Diag = true
	cfg.Store = openStore(t, dir)
	cfg.Events = &CellEvents{}
	if _, err := Figure3(cfg); err != nil {
		t.Fatal(err)
	}
	if c := cfg.Store.Counters(); c.Hits != 0 {
		t.Errorf("a store filled without Diag served %d cells to a Diag run", c.Hits)
	}
	if n := len(cfg.Events.Diag); n != len(cells) {
		t.Errorf("Diag run recorded %d attribution cells, want %d", n, len(cells))
	}
}

// TestStoreSpansWithoutRecorder: a cell stored while no recorder is
// installed still carries its whole span subtree, so a later manifest
// run that replays it matches a clean manifest run.
func TestStoreSpansWithoutRecorder(t *testing.T) {
	if obs.Default() != nil {
		t.Fatal("test requires no installed recorder")
	}
	dir := t.TempDir()
	cfg := smallFig3()
	cfg.Store = openStore(t, dir)
	if _, err := Figure3(cfg); err != nil {
		t.Fatal(err)
	}

	clean := manifestBytes(t, "fig3", smallFig3(), func() (any, error) { return Figure3(smallFig3()) })
	rcfg := smallFig3()
	rcfg.Store = openStore(t, dir)
	replayed := manifestBytes(t, "fig3", rcfg, func() (any, error) { return Figure3(rcfg) })
	if c := rcfg.Store.Counters(); c.Misses != 0 {
		t.Fatalf("replay recomputed %d cells", c.Misses)
	}
	if !bytes.Equal(clean, replayed) {
		d1, d2 := firstDiff(clean, replayed)
		t.Errorf("replayed manifest differs from a clean one:\n--- clean ---\n%s\n--- replayed ---\n%s", d1, d2)
	}
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
