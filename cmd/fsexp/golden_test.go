package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"falseshare/internal/experiments"
	"falseshare/internal/sim/ksr"
)

// update rewrites the golden files instead of comparing:
//
//	go test ./cmd/fsexp -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files with the current output")

// TestGoldenFig3Output pins the exact text `fsexp -fig3` prints on a
// tiny configuration, so CLI formatting regressions (column widths,
// headers, bar glyphs, float precision) are caught by diff. The
// simulation itself is deterministic, so the file is stable across
// runs, worker counts, and platforms.
func TestGoldenFig3Output(t *testing.T) {
	cfg := experiments.DefaultConfig()
	cfg.Workers = 4 // golden output must not depend on parallelism
	cfg.Fig3Blocks = []int64{16, 128}
	cells, err := experiments.Figure3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly what main() prints for -fig3 (fmt.Println adds the
	// trailing newline).
	got := experiments.RenderFigure3(cells) + "\n"

	checkGolden(t, "fig3", got)
}

// TestGoldenTable2Output pins the exact text `fsexp -table2` prints on
// a reduced block set (the -scale-min configuration), mirroring
// TestGoldenFig3Output: deterministic simulation, so any diff is a
// formatting or classification change.
func TestGoldenTable2Output(t *testing.T) {
	cfg := experiments.DefaultConfig()
	cfg.Workers = 4 // golden output must not depend on parallelism
	cfg.Table2Blocks = []int64{32, 128}
	rows, err := experiments.Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := experiments.RenderTable2(rows) + "\n"

	checkGolden(t, "table2", got)
}

// TestGoldenFig4Output pins the exact text `fsexp -fig4` prints on the
// -scale-min sweep, mirroring the fig3 and table2 golden tests: the
// header line plus one RenderCurves block per program in sorted order,
// exactly as main() assembles them.
func TestGoldenFig4Output(t *testing.T) {
	checkGolden(t, "fig4", renderFig4(t, 4, 1, 2, 4))
}

// TestGoldenFig4RingsOutput pins Fig 4 above 32 processors, where the
// KSR2 model's second ring comes in: the 32-processor point is one
// ring, 40 and 56 span two.
func TestGoldenFig4RingsOutput(t *testing.T) {
	checkGolden(t, "fig4_rings", renderFig4(t, 2, 32, 40, 56))
}

// renderFig4 is what main() prints for -fig4 over the given processor
// counts: the header line plus one RenderCurves block per program in
// sorted order.
func renderFig4(t *testing.T, workers int, counts ...int) string {
	t.Helper()
	cfg := experiments.DefaultConfig()
	cfg.Workers = workers // golden output must not depend on parallelism
	cfg.SweepCounts = counts
	curves, err := experiments.Figure4(cfg, ksr.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(curves))
	for n := range curves {
		names = append(names, n)
	}
	sort.Strings(names)
	got := "Figure 4: speedup curves (N=unoptimized C=compiler P=programmer)\n"
	for _, n := range names {
		got += experiments.RenderCurves(curves[n]) + "\n"
	}
	return got
}

// TestGoldenMatrixOutput pins the exact text `fsexp -matrix` prints on
// a small generated population (the -scale-min program sizes): the
// aggregated protocol × topology grid plus the pattern summary. The
// generator and simulation are both deterministic, so the file is
// stable across runs, worker counts, and platforms.
func TestGoldenMatrixOutput(t *testing.T) {
	cfg := experiments.DefaultConfig()
	cfg.Workers = 4 // golden output must not depend on parallelism
	opt := experiments.MatrixOptions{Workloads: 8, Seed: 1, Procs: 8, Block: 64, ScaleMin: true}
	cells, err := experiments.Matrix(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	got := experiments.RenderMatrix(cells) + "\n"

	checkGolden(t, "matrix", got)
}

// checkGolden compares got with testdata/<name>.golden, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/fsexp -run Golden -update` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s (refresh with -update if intended):\n%s",
			golden, diffLines(string(want), got))
	}
}

// diffLines renders a minimal line diff for the failure message.
func diffLines(want, got string) string {
	w, g := splitLines(want), splitLines(got)
	out := ""
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			out += fmt.Sprintf("line %d:\n  want: %q\n  got:  %q\n", i+1, wl, gl)
		}
	}
	return out
}

func splitLines(s string) []string {
	var out []string
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != '\n' {
			i++
		}
		out = append(out, s[:i])
		if i < len(s) {
			i++
		}
		s = s[i:]
	}
	return out
}
