package experiments

import (
	"strings"
	"testing"
)

func TestCompileCost(t *testing.T) {
	// One worker and the minimum of five timings: a single timing
	// taken while other jobs share the CPU can land on a scheduling or
	// GC pause and put the front end above the whole restructurer.
	rows, err := CompileCost(Config{ConfigSpec: ConfigSpec{Scale: 1}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	for _, r := range rows {
		if r.Baseline <= 0 || r.Full <= 0 {
			t.Errorf("%s: non-positive timings %v %v", r.Program, r.Baseline, r.Full)
		}
		if r.Full < r.Baseline/4 {
			t.Errorf("%s: full restructuring (%v) implausibly below front end (%v)",
				r.Program, r.Full, r.Baseline)
		}
		if o := r.Overhead(); o < -0.5 || o > 1 {
			t.Errorf("%s: overhead %f out of range", r.Program, o)
		}
	}
	out := RenderCompileCost(rows)
	if !strings.Contains(out, "total") || !strings.Contains(out, "maxflow") {
		t.Errorf("render:\n%s", out)
	}
}
