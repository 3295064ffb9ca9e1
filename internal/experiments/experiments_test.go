package experiments

import (
	"strings"
	"testing"

	"falseshare/internal/sim/ksr"
	"falseshare/internal/workload"
)

// testConfig keeps test runtime modest: fewer processor counts and
// the standard scale (the kernels are small).
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.SweepCounts = []int{1, 2, 4, 8, 12, 16}
	return cfg
}

func TestFigure3ShapesMatchPaper(t *testing.T) {
	cells, err := Figure3(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6*2*2 {
		t.Fatalf("cells = %d, want 24", len(cells))
	}
	// Index cells for comparisons.
	get := func(prog string, ver Version, blk int64) Fig3Cell {
		for _, c := range cells {
			if c.Program == prog && c.Version == ver && c.Block == blk {
				return c
			}
		}
		t.Fatalf("missing cell %s/%s/%d", prog, ver, blk)
		return Fig3Cell{}
	}
	for _, b := range workload.Unoptimizable() {
		n128 := get(b.Name, VersionN, 128)
		c128 := get(b.Name, VersionC, 128)
		n16 := get(b.Name, VersionN, 16)
		// The compiler reduces false sharing at 128B for every
		// program (the paper: "in all programs for all block sizes").
		if c128.FSRate >= n128.FSRate {
			t.Errorf("%s: FS rate not reduced at 128B: %.3f -> %.3f", b.Name, n128.FSRate, c128.FSRate)
		}
		// False sharing grows with block size.
		if n128.FSMisses <= n16.FSMisses {
			t.Errorf("%s: FS should grow with block size: 16B=%d 128B=%d", b.Name, n16.FSMisses, n128.FSMisses)
		}
		// The total miss rate falls at 128B.
		if c128.TotalRate() >= n128.TotalRate() {
			t.Errorf("%s: total miss rate not reduced: %.3f -> %.3f", b.Name, n128.TotalRate(), c128.TotalRate())
		}
	}
	out := RenderFigure3(cells)
	if !strings.Contains(out, "maxflow") || !strings.Contains(out, "#") {
		t.Errorf("render looks wrong:\n%s", out)
	}
}

func TestAggregatesMatchPaperBands(t *testing.T) {
	a, err := ComputeAggregates(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", a.Render())
	// Paper: ~70% of misses are false sharing at 128B. Accept a broad
	// band — the substrate differs — but the misses must be
	// FS-dominated.
	if a.FSFractionOfMisses < 0.40 || a.FSFractionOfMisses > 0.95 {
		t.Errorf("FS fraction of misses %.2f outside [0.40, 0.95] (paper ~0.70)", a.FSFractionOfMisses)
	}
	// Paper: ~80% of FS misses eliminated.
	if a.FSEliminated < 0.60 {
		t.Errorf("FS eliminated %.2f < 0.60 (paper ~0.80)", a.FSEliminated)
	}
	// Paper: other misses rise ~19%; allow anything below a doubling.
	if a.OtherIncrease < -0.10 || a.OtherIncrease > 1.0 {
		t.Errorf("other-miss increase %.2f outside [-0.10, 1.0] (paper ~0.19)", a.OtherIncrease)
	}
	// Paper: total misses roughly halved.
	if a.TotalMissReduction < 0.25 {
		t.Errorf("total miss reduction %.2f < 0.25 (paper ~0.50)", a.TotalMissReduction)
	}
}

func TestTable2ShapesMatchPaper(t *testing.T) {
	cfg := testConfig()
	cfg.Table2Blocks = []int64{32, 128} // keep the test quick
	rows, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Program] = r
	}
	t.Logf("\n%s", RenderTable2(rows))

	// Shape assertions from the paper's Table 2:
	// Pverify is indirection-dominated.
	pv := byName["pverify"]
	if !(pv.Indirection > pv.GroupTranspose && pv.Indirection > pv.PadAlign) {
		t.Errorf("pverify should be indirection-dominated: %+v", pv)
	}
	// Fmm, Radiosity, Raytrace are G&T-dominated.
	for _, n := range []string{"fmm", "radiosity", "raytrace"} {
		r := byName[n]
		if !(r.GroupTranspose > r.Indirection && r.GroupTranspose > r.PadAlign) {
			t.Errorf("%s should be G&T-dominated: %+v", n, r)
		}
	}
	// Maxflow is pad-dominated with no G&T/indirection contribution.
	mf := byName["maxflow"]
	if !(mf.PadAlign > mf.GroupTranspose && mf.PadAlign > mf.Indirection) {
		t.Errorf("maxflow should be pad-dominated: %+v", mf)
	}
	// Totals: >90%% for fmm/pverify/radiosity; lower for the rest.
	for _, n := range []string{"fmm", "pverify", "radiosity"} {
		if byName[n].Total < 85 {
			t.Errorf("%s total %.1f%%, want >= 85%% (paper >90%%)", n, byName[n].Total)
		}
	}
	for _, n := range []string{"maxflow", "topopt", "raytrace"} {
		if byName[n].Total > 97 {
			t.Errorf("%s total %.1f%%, should retain residual FS", n, byName[n].Total)
		}
	}
}

// TestTable3HeadlineShapes is the paper's central quantitative claim,
// verified across the whole suite: the compiler version reaches the
// highest maximum speedup for every program and always outperforms the
// programmer's hand-tuning. Run with -short to skip (it sweeps many
// processor counts).
func TestTable3HeadlineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sweep")
	}
	cfg := testConfig()
	cfg.SweepCounts = []int{1, 2, 4, 8, 12, 16, 24}
	rows, err := Table3(cfg, ksr.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	doubled := 0
	for _, r := range rows {
		c := r.Max[VersionC]
		if n, ok := r.Max[VersionN]; ok {
			if c <= n {
				t.Errorf("%s: compiler (%.2f) must beat original (%.2f)", r.Program, c, n)
			}
			if c >= 2*n {
				doubled++
			}
		}
		if p, ok := r.Max[VersionP]; ok {
			if c < p*0.999 {
				t.Errorf("%s: compiler (%.2f) must not lose to programmer (%.2f)", r.Program, c, p)
			}
		}
	}
	// The paper: maximum speedup "more than doubled" for several
	// programs.
	if doubled < 2 {
		t.Errorf("compiler should at least double the original's maximum for several programs (got %d)", doubled)
	}
	t.Logf("\n%s", RenderTable3(rows))
}

func TestSpeedupCurvesKeyProperties(t *testing.T) {
	cfg := testConfig()
	machine := ksr.DefaultConfig()
	b := workload.Get("pverify")
	curves, err := SpeedupCurves(b, cfg, machine)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 3 {
		t.Fatalf("pverify should have 3 curves, got %d", len(curves))
	}
	t.Logf("\n%s", RenderCurves(curves))
	var n, c, p Curve
	for _, cv := range curves {
		switch cv.Version {
		case VersionN:
			n = cv
		case VersionC:
			c = cv
		case VersionP:
			p = cv
		}
	}
	if c.MaxSpeed <= n.MaxSpeed {
		t.Errorf("compiler must beat original: C=%.2f N=%.2f", c.MaxSpeed, n.MaxSpeed)
	}
	if c.MaxSpeed <= p.MaxSpeed {
		t.Errorf("compiler must beat programmer: C=%.2f P=%.2f", c.MaxSpeed, p.MaxSpeed)
	}
}

// TestSweepBaselineOnce: a sweep that includes one processor divides
// by its baseline version's own p1 point, so it runs that point once;
// a sweep without p1 runs the baseline as an extra first job. Both
// yield the same speedups — for pverify, whose baseline is N, and for
// mp3d, which has no N and measures against P.
func TestSweepBaselineOnce(t *testing.T) {
	machine := ksr.DefaultConfig()
	for _, name := range []string{"pverify", "mp3d"} {
		b := workload.Get(name)
		with, without := testConfig(), testConfig()
		with.SweepCounts, without.SweepCounts = []int{1, 2}, []int{2}
		if jobs, _ := sweepJobs(b, with, machine); len(jobs) != 2*len(Versions(b)) {
			t.Errorf("%s: sweep over {1, 2} has %d jobs, want %d", name, len(jobs), 2*len(Versions(b)))
		}
		if jobs, _ := sweepJobs(b, without, machine); len(jobs) != 1+len(Versions(b)) {
			t.Errorf("%s: sweep over {2} has %d jobs, want %d", name, len(jobs), 1+len(Versions(b)))
		}
		a, err := SpeedupCurves(b, with, machine)
		if err != nil {
			t.Fatal(err)
		}
		c, err := SpeedupCurves(b, without, machine)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i].Version == Baseline(b) && a[i].Speedup[0] != 1 {
				t.Errorf("%s: baseline %s speedup at p1 = %v, want 1", name, a[i].Version, a[i].Speedup[0])
			}
			if a[i].Speedup[1] != c[i].Speedup[0] {
				t.Errorf("%s %s: speedup at p2 is %v with p1 in the sweep, %v without", name, a[i].Version, a[i].Speedup[1], c[i].Speedup[0])
			}
		}
	}
}
