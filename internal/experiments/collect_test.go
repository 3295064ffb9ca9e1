package experiments

import (
	"context"
	"strings"
	"testing"

	"falseshare/internal/sim/ksr"
)

// collectTestGrid is a small matrix grid: its config and the section
// set that enumerates it.
func collectTestGrid() (Config, SectionSet) {
	mopt := MatrixOptions{Workloads: 2, Seed: 7, Procs: 2, Block: 32, ScaleMin: true}
	return DefaultConfig(), SectionSet{Sections: []string{"matrix"}, Matrix: mopt}
}

// TestCollectDeterministic: two enumerations of the same spec produce
// the same keys in the same order, so a cell named by key is the same
// cell in every enumeration of its configuration.
func TestCollectDeterministic(t *testing.T) {
	cfg, set := collectTestGrid()
	a, err := Collect(Config{ConfigSpec: cfg.ConfigSpec}, set)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(Config{ConfigSpec: cfg.ConfigSpec}, set)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 {
		t.Fatal("empty enumeration")
	}
	ka, kb := a.Keys(), b.Keys()
	if len(ka) != len(kb) {
		t.Fatalf("enumerations differ in size: %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("key %d differs: %q vs %q", i, ka[i], kb[i])
		}
	}
	for _, k := range ka {
		if !strings.HasPrefix(k, "matrix/") {
			t.Errorf("unexpected key %q", k)
		}
	}
}

// TestCollectSectionOverlap: Table 3 re-enumerates Figure 4's sweep
// under the same keys; the enumeration dedups them (first add wins,
// sound because equal keys denote equal work).
func TestCollectSectionOverlap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SweepCounts = []int{1, 2}
	machine := ksr.DefaultConfig()
	set4 := SectionSet{Sections: []string{"fig4"}, Machine: machine}
	set3 := SectionSet{Sections: []string{"table3"}, Machine: machine}
	both := SectionSet{Sections: []string{"fig4", "table3"}, Machine: machine}
	e4, err := Collect(cfg, set4)
	if err != nil {
		t.Fatal(err)
	}
	e3, err := Collect(cfg, set3)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := Collect(cfg, both)
	if err != nil {
		t.Fatal(err)
	}
	if eb.Len() >= e4.Len()+e3.Len() {
		t.Errorf("no dedup across fig4+table3: %d cells from %d + %d", eb.Len(), e4.Len(), e3.Len())
	}
	if eb.Len() < e4.Len() || eb.Len() < e3.Len() {
		t.Errorf("union smaller than a member: %d vs %d/%d", eb.Len(), e4.Len(), e3.Len())
	}
}

func TestCollectUnknownSection(t *testing.T) {
	cfg, _ := collectTestGrid()
	if _, err := Collect(cfg, SectionSet{Sections: []string{"fig99"}}); err == nil {
		t.Fatal("unknown section accepted")
	}
}

func TestEnumerationUnknownKey(t *testing.T) {
	cfg, set := collectTestGrid()
	enum, err := Collect(Config{ConfigSpec: cfg.ConfigSpec}, set)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := enum.Run(context.Background(), "matrix/no-such-cell"); ok {
		t.Fatal("unknown key executed")
	}
}
