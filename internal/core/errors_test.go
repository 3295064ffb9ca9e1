package core

import (
	"context"
	"strings"
	"testing"
)

func TestCompileErrorPropagation(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"syntax", `void main( {`, "parse"},
		{"semantic", `void main() { x = 1; }`, "check"},
		{"no main", `shared int a;`, "check"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := CompileCtx(context.Background(), tc.src, Options{Nprocs: 4})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Compile err = %v, want containing %q", err, tc.want)
			}
			_, err = Restructure(tc.src, Options{Nprocs: 4})
			if err == nil {
				t.Fatalf("Restructure should fail too")
			}
		})
	}
}

func TestBarrierOutsideMainFailsRestructure(t *testing.T) {
	src := `
void sync() { barrier; }
void main() { sync(); }
`
	// Compile (no analysis) accepts it; Restructure must reject it at
	// the non-concurrency stage.
	if _, err := CompileCtx(context.Background(), src, Options{Nprocs: 4}); err != nil {
		t.Fatalf("plain compile should pass: %v", err)
	}
	_, err := Restructure(src, Options{Nprocs: 4})
	if err == nil || !strings.Contains(err.Error(), "only in main") {
		t.Fatalf("err = %v", err)
	}
}

func TestDefaultOptions(t *testing.T) {
	o := Options{}.defaults()
	if o.Nprocs != 12 || o.BlockSize != 128 {
		t.Errorf("defaults: %+v", o)
	}
	if o.Heuristics.Nprocs != 12 || o.Heuristics.BlockSize != 128 {
		t.Errorf("heuristics defaults: %+v", o.Heuristics)
	}
	a := o.analysisConfig()
	if !a.StaticProfiling {
		t.Errorf("analysis defaults: %+v", a)
	}
	noProf := Options{NoProfiling: true}.defaults()
	if noProf.Heuristics.FreqThreshold != 1 {
		t.Errorf("no-profiling threshold: %+v", noProf.Heuristics)
	}
}

func TestRestructureExposesAnalyses(t *testing.T) {
	src := `
shared int a[32];
private int myid;
void main() {
    myid = pid;
    for (int r = 0; r < 100; r = r + 1) {
        a[myid] = a[myid] + 1;
    }
    barrier;
    a[0] = 0;
}
`
	res := restructure(t, src, Options{Nprocs: 4, BlockSize: 64})
	if res.PDVs == nil || !strings.Contains(res.PDVs.String(), "myid") {
		t.Errorf("PDV results missing")
	}
	if res.Phases == nil || res.Phases.N != 2 {
		t.Errorf("phase results missing: %+v", res.Phases)
	}
	if res.Procs == nil || res.Procs.Nprocs != 4 {
		t.Errorf("proc results missing")
	}
	if res.Summary == nil || res.Summary.Objects["global:a"] == nil {
		t.Errorf("summary missing")
	}
	if res.Original.Source == "" || res.Transformed.Source == "" {
		t.Errorf("sources missing")
	}
}
