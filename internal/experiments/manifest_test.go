package experiments

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"falseshare/internal/core"
	"falseshare/internal/obs"
	"falseshare/internal/sim/cache"
	"falseshare/internal/workload"
)

// TestReportRequiredFields builds a run manifest exactly the way the
// CLIs do — restructure under a recorder, measure with the cache
// simulator, export JSON — then re-parses it generically and checks
// every field the observability layer promises: per-stage wall times,
// stage counters (PDVs, phases, RSD merges, transformation kinds),
// and per-block / per-processor cache stats.
func TestReportRequiredFields(t *testing.T) {
	bm := workload.Get("maxflow")
	if bm == nil {
		t.Fatal("maxflow not registered")
	}

	rec := obs.NewRecorder()
	obs.Install(rec)
	res, err := core.Restructure(bm.Source(1), core.Options{Nprocs: 4, BlockSize: 128})
	if err != nil {
		obs.Install(nil)
		t.Fatal(err)
	}
	var perBlock []BlockStats
	for _, blk := range []int64{16, 128} {
		st, err := MeasureConfig(context.Background(), res.Transformed, cache.DefaultConfig(4, blk), 0)
		if err != nil {
			obs.Install(nil)
			t.Fatal(err)
		}
		perBlock = append(perBlock, NewBlockStats(st))
	}
	obs.Install(nil)

	rep := rec.Report("fssim")
	rep.Config = map[string]any{"nprocs": 4, "bench": "maxflow"}
	rep.AddData("blocks", perBlock)

	path := filepath.Join(t.TempDir(), "r.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}

	if doc["tool"] != "fssim" {
		t.Errorf("tool = %v", doc["tool"])
	}
	if _, ok := doc["config"].(map[string]any); !ok {
		t.Errorf("missing config object")
	}

	// Per-stage wall times and counters.
	spans, _ := doc["spans"].([]any)
	restr := findSpan(spans, "restructure")
	if restr == nil {
		t.Fatal("missing restructure span")
	}
	kids, _ := restr["children"].([]any)
	compile := findSpan(kids, "compile")
	if compile == nil {
		t.Fatal("missing compile span")
	}
	compileKids, _ := compile["children"].([]any)
	wantStages(t, compileKids, "parse", "typecheck", "layout")
	wantStages(t, kids, "compile", "cfg", "pdv", "procs", "nonconc", "sideeffect", "decide", "apply", "layout")
	// maxflow at 4 processes plans pads and locks only: they apply to
	// the original's tree, which needs no recheck.
	if findSpan(kids, "recheck") != nil {
		t.Errorf("recheck span on a directive-only plan: %v", kids)
	}
	// A plan that rewrites the tree copies the original's tree for the
	// rewrite, never parsing the source again, and rechecks the copy.
	rewrite := rewriteStages(t)
	wantStages(t, rewrite, "clone", "apply", "recheck", "layout")
	for _, stage := range []string{"parse", "typecheck"} {
		if findSpan(rewrite, stage) != nil {
			t.Errorf("%s span beside the rewrite's copy: %v", stage, rewrite)
		}
	}
	wantCounter(t, findSpan(kids, "pdv"), "pdvs")
	wantCounter(t, findSpan(kids, "nonconc"), "phases")
	se := findSpan(kids, "sideeffect")
	for _, c := range []string{"objects", "rsd_added", "rsd_deduped", "rsd_merged", "rsd_capped"} {
		wantCounter(t, se, c)
	}
	dec := findSpan(kids, "decide")
	wantCounter(t, dec, "decisions")
	if dec != nil {
		counters, _ := dec["counters"].(map[string]any)
		kinds := 0
		for k := range counters {
			if len(k) > 5 && k[:5] == "kind:" {
				kinds++
			}
		}
		if kinds == 0 {
			t.Errorf("decide span has no kind:* counters: %v", counters)
		}
	}

	// The VM run recorded under measure.
	vmRun := findSpanDeep(spans, "vm.run")
	if vmRun == nil {
		t.Fatal("missing vm.run span")
	}
	for _, c := range []string{"instrs", "refs", "barriers"} {
		wantCounter(t, vmRun, c)
	}

	// Per-block, per-processor cache stats.
	data, _ := doc["data"].(map[string]any)
	blocks, _ := data["blocks"].([]any)
	if len(blocks) != 2 {
		t.Fatalf("data.blocks has %d entries, want 2", len(blocks))
	}
	for _, b := range blocks {
		blk := b.(map[string]any)
		if _, ok := blk["block"].(float64); !ok {
			t.Errorf("block entry missing block size: %v", blk)
		}
		if _, ok := blk["miss_rate"].(float64); !ok {
			t.Errorf("block entry missing miss_rate")
		}
		st, _ := blk["stats"].(map[string]any)
		if st == nil {
			t.Fatalf("block entry missing stats")
		}
		for _, f := range []string{"Refs", "Cold", "Replace", "TrueShare", "FalseShare"} {
			if _, ok := st[f].(float64); !ok {
				t.Errorf("stats missing %s", f)
			}
		}
		procs, _ := blk["procs"].([]any)
		if len(procs) != 4 {
			t.Fatalf("procs has %d entries, want 4", len(procs))
		}
		p0 := procs[0].(map[string]any)
		for _, f := range []string{"proc", "refs", "misses", "cold", "replace", "true_share", "false_share", "remote"} {
			if _, ok := p0[f].(float64); !ok {
				t.Errorf("proc stats missing %s", f)
			}
		}
	}
}

// wantStages checks that each named stage span is among spans and
// carries its wall time.
func wantStages(t *testing.T, spans []any, stages ...string) {
	t.Helper()
	for _, stage := range stages {
		s := findSpan(spans, stage)
		if s == nil {
			t.Errorf("missing stage span %q", stage)
			continue
		}
		if _, ok := s["wall_ns"].(float64); !ok {
			t.Errorf("stage %q has no wall_ns", stage)
		}
		if _, ok := s["wall_ms"].(float64); !ok {
			t.Errorf("stage %q has no wall_ms", stage)
		}
	}
}

// rewriteStages restructures pverify at 4 processes, whose plan
// groups and indirects, under a recorder on the context and returns
// the restructure span's children as the manifest renders them.
func rewriteStages(t *testing.T) []any {
	t.Helper()
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	res, err := core.RestructureCtx(ctx, workload.Get("pverify").Source(1), core.Options{Nprocs: 4, BlockSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transformed.File == res.Original.File {
		t.Fatalf("pverify at 4 processes should rewrite its tree:\n%s", res.Plan)
	}
	raw, err := json.Marshal(rec.Report("fsc"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	spans, _ := doc["spans"].([]any)
	restr := findSpan(spans, "restructure")
	if restr == nil {
		t.Fatal("missing restructure span")
	}
	kids, _ := restr["children"].([]any)
	return kids
}

func findSpan(spans []any, name string) map[string]any {
	for _, s := range spans {
		m, _ := s.(map[string]any)
		if m != nil && m["name"] == name {
			return m
		}
	}
	return nil
}

func findSpanDeep(spans []any, name string) map[string]any {
	for _, s := range spans {
		m, _ := s.(map[string]any)
		if m == nil {
			continue
		}
		if m["name"] == name {
			return m
		}
		if kids, _ := m["children"].([]any); kids != nil {
			if f := findSpanDeep(kids, name); f != nil {
				return f
			}
		}
	}
	return nil
}

func wantCounter(t *testing.T, span map[string]any, name string) {
	t.Helper()
	if span == nil {
		t.Errorf("span for counter %q missing", name)
		return
	}
	counters, _ := span["counters"].(map[string]any)
	if _, ok := counters[name].(float64); !ok {
		t.Errorf("span %v missing counter %q (have %v)", span["name"], name, counters)
	}
}

// TestRunManifest checks the per-figure manifest path fsexp uses.
func TestRunManifest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fig3Blocks = []int64{128}
	rep, err := RunManifest("fsexp", "unit", ConfigMap(cfg), func() (any, error) {
		res, err := core.Restructure(workload.Get("maxflow").Source(1), core.Options{Nprocs: 4, BlockSize: 128})
		if err != nil {
			return nil, err
		}
		return len(res.Applied), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if obs.Default() != nil {
		t.Error("RunManifest left a recorder installed")
	}
	if rep.Data["name"] != "unit" {
		t.Errorf("manifest name = %v", rep.Data["name"])
	}
	if _, ok := rep.Data["result"]; !ok {
		t.Error("manifest missing result")
	}
	if len(rep.Spans) == 0 || rep.Spans[0].Name != "restructure" {
		t.Errorf("manifest spans = %+v, want restructure first", rep.Spans)
	}

	dir := t.TempDir()
	path, err := WriteManifest(dir, "unit", rep)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
}

// TestWriteManifestCreatesDir checks that -reportdir need not exist in
// advance: WriteManifest creates the directory — including nested
// paths — instead of erroring, and the manifest lands inside it.
func TestWriteManifestCreatesDir(t *testing.T) {
	rec := obs.NewRecorder()
	rep := rec.Report("fsexp")
	rep.AddData("result", []int{1, 2, 3})

	for _, dir := range []string{
		filepath.Join(t.TempDir(), "runs"),
		filepath.Join(t.TempDir(), "deeply", "nested", "report", "dir"),
	} {
		path, err := WriteManifest(dir, "fig3", rep)
		if err != nil {
			t.Fatalf("WriteManifest(%s): %v", dir, err)
		}
		if want := filepath.Join(dir, "fig3.json"); path != want {
			t.Errorf("manifest path = %s, want %s", path, want)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("manifest not written: %v", err)
		}
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("manifest is not valid JSON: %v", err)
		}
	}

	// Writing into an existing directory keeps working (idempotent
	// MkdirAll), and a second manifest joins the first.
	dir := t.TempDir()
	if _, err := WriteManifest(dir, "a", rep); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteManifest(dir, "b", rep); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a.json", "b.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing %s: %v", name, err)
		}
	}
}
