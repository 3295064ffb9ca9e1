package experiments

import (
	"strings"
	"testing"
)

func TestCSVRenders(t *testing.T) {
	cells := []Fig3Cell{{
		Program: "x", Version: VersionN, Block: 128, Procs: 12,
		Refs: 100, FSMisses: 10, OtherMisses: 5, FSRate: 10, OtherRate: 5,
	}}
	out := csvFigure3(cells)
	if !strings.HasPrefix(out, "program,version,") || !strings.Contains(out, "x,N,128,12,100,10,5,") {
		t.Errorf("fig3 csv:\n%s", out)
	}

	curve := func(prog string) []Curve {
		return []Curve{{
			Program: prog, Version: VersionC, Counts: []int{1, 2},
			Speedup: []float64{1, 1.9}, Cycles: []float64{100, 52},
		}}
	}
	out = printFigure4(map[string][]Curve{"y": curve("y"), "x": curve("x")}, true)
	if strings.Count(out, "program,") != 1 || !strings.Contains(out, "x,C,2,1.9000,52\ny,C,1,") {
		t.Errorf("fig4 csv: want one header, then x's rows before y's:\n%s", out)
	}

	rows := []Table2Row{{Program: "x", Total: 90.5, GroupTranspose: 80}}
	out = csvTable2(rows)
	if !strings.Contains(out, "x,90.50,80.00,0.00,0.00,0.00") {
		t.Errorf("table2 csv:\n%s", out)
	}
}
