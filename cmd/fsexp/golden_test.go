package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"falseshare/internal/experiments"
	"falseshare/internal/sim/ksr"
)

// update rewrites the golden files instead of comparing:
//
//	go test ./cmd/fsexp -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files with the current output")

// The goldens print through fsexp's own section table, so each file
// holds exactly what fsexp prints for its section. The simulation is
// deterministic, so the files are stable across runs, worker counts
// and platforms.

// TestGoldenFig3Output pins the exact text `fsexp -fig3` prints on a
// tiny configuration, so CLI formatting regressions (column widths,
// headers, bar glyphs, float precision) are caught by diff.
func TestGoldenFig3Output(t *testing.T) {
	cfg := goldenConfig(4)
	cfg.Fig3Blocks = []int64{16, 128}
	checkGolden(t, "fig3", printSection(t, "fig3", cfg, experiments.SectionSet{}))
}

// TestGoldenTable2Output pins the exact text `fsexp -table2` prints on
// a reduced block set (the -scale-min configuration): any diff is a
// formatting or classification change.
func TestGoldenTable2Output(t *testing.T) {
	cfg := goldenConfig(4)
	cfg.Table2Blocks = []int64{32, 128}
	checkGolden(t, "table2", printSection(t, "table2", cfg, experiments.SectionSet{}))
}

// TestGoldenFig4Output pins the exact text `fsexp -fig4` prints on the
// -scale-min sweep: the header line plus one RenderCurves block per
// program in sorted order.
func TestGoldenFig4Output(t *testing.T) {
	checkGolden(t, "fig4", printFig4(t, 4, 1, 2, 4))
}

// TestGoldenFig4RingsOutput pins Fig 4 above 32 processors, where the
// KSR2 model's second ring comes in: the 32-processor point is one
// ring, 40 and 56 span two.
func TestGoldenFig4RingsOutput(t *testing.T) {
	checkGolden(t, "fig4_rings", printFig4(t, 2, 32, 40, 56))
}

// printFig4 is what fsexp prints for -fig4 over the given processor
// counts.
func printFig4(t *testing.T, workers int, counts ...int) string {
	t.Helper()
	cfg := goldenConfig(workers)
	cfg.SweepCounts = counts
	return printSection(t, "fig4", cfg, experiments.SectionSet{Machine: ksr.DefaultConfig()})
}

// TestGoldenMatrixOutput pins the exact text `fsexp -matrix` prints on
// a small generated population (the -scale-min program sizes): the
// aggregated protocol × topology grid plus the pattern summary.
func TestGoldenMatrixOutput(t *testing.T) {
	opt := experiments.MatrixOptions{Workloads: 8, Seed: 1, Procs: 8, Block: 64, ScaleMin: true}
	checkGolden(t, "matrix", printSection(t, "matrix", goldenConfig(4), experiments.SectionSet{Matrix: opt}))
}

// goldenConfig is the default configuration on the given number of
// workers; golden output must not depend on it.
func goldenConfig(workers int) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Workers = workers
	return cfg
}

// printSection runs the named section of the table under cfg and set
// and returns what fsexp prints for it.
func printSection(t *testing.T, name string, cfg experiments.Config, set experiments.SectionSet) string {
	t.Helper()
	for _, s := range experiments.Sections {
		if s.Name == name {
			v, err := s.Run(cfg, set)
			if err != nil {
				t.Fatal(err)
			}
			return s.Print(v, false)
		}
	}
	t.Fatalf("no section %q", name)
	return ""
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
