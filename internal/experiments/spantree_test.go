package experiments

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"falseshare/internal/core"
	"falseshare/internal/obs"
	"falseshare/internal/sim/cache"
	"falseshare/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens (spantree, sweep_cycles) with the current output")

// recordFscDiag runs what fsc -bench maxflow -verify -diag records:
// the verified restructure at 4 processes and 128-byte blocks, then
// the attributed measurement of the original and the transformed
// program.
func recordFscDiag(ctx context.Context) error {
	const procs, block = 4, 128
	res, err := core.RestructureCtx(ctx, workload.Get("maxflow").Source(1),
		core.Options{Nprocs: procs, BlockSize: block, Verify: true})
	if err != nil {
		return err
	}
	ccfg := cache.DefaultConfig(procs, block)
	for _, prog := range []*core.Program{res.Original, res.Transformed} {
		if _, _, err := MeasureConfigAttr(ctx, prog, ccfg, 0); err != nil {
			return err
		}
	}
	return nil
}

// renderSpanTree writes the names, nesting and counters of a span
// forest, one span a line, with no timings.
func renderSpanTree(sb *strings.Builder, spans []*obs.Span, depth int) {
	for _, s := range spans {
		sb.WriteString(strings.Repeat("  ", depth) + s.Name)
		keys := make([]string, 0, len(s.Counters))
		for k := range s.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(sb, " %s=%d", k, s.Counters[k])
		}
		sb.WriteByte('\n')
		renderSpanTree(sb, s.Children, depth+1)
	}
}

func checkSpanTree(t *testing.T, rec *obs.Recorder) {
	t.Helper()
	var sb strings.Builder
	renderSpanTree(&sb, rec.Spans(), 0)
	const path = "testdata/spantree.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("span tree differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestSpanTreeGolden pins the span tree of fsc -bench maxflow -verify
// -diag recorded under an installed recorder.
func TestSpanTreeGolden(t *testing.T) {
	if obs.Default() != nil {
		t.Fatal("test requires no installed recorder")
	}
	rec := obs.NewRecorder()
	obs.Install(rec)
	defer obs.Install(nil)
	if err := recordFscDiag(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkSpanTree(t, rec)
}

// TestSpanTreeGoldenContext records the same tree through a recorder
// on a context handed to another goroutine, while a third goroutine
// restructures with no recorder at all.
func TestSpanTreeGoldenContext(t *testing.T) {
	if obs.Default() != nil {
		t.Fatal("test requires no installed recorder")
	}
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	errs := make(chan error, 2)
	go func() { errs <- recordFscDiag(ctx) }()
	go func() {
		_, err := core.RestructureCtx(context.Background(), workload.Get("maxflow").Source(1),
			core.Options{Nprocs: 4, BlockSize: 128, Verify: true})
		errs <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	checkSpanTree(t, rec)
}
