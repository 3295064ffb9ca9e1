package experiments

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"falseshare/internal/obs"
	"falseshare/internal/sim/cache"
	"falseshare/internal/transform"
	"falseshare/internal/workload"
)

func TestVersionsAndBaseline(t *testing.T) {
	pv := workload.Get("pverify")
	if got := Versions(pv); len(got) != 3 || got[0] != VersionN || got[2] != VersionP {
		t.Errorf("pverify versions: %v", got)
	}
	if Baseline(pv) != VersionN {
		t.Errorf("pverify baseline should be N")
	}

	w := workload.Get("water")
	if got := Versions(w); len(got) != 2 || got[0] != VersionC || got[1] != VersionP {
		t.Errorf("water versions: %v", got)
	}
	if Baseline(w) != VersionP {
		t.Errorf("water baseline should be P (no N exists)")
	}
}

func TestProgramErrors(t *testing.T) {
	w := workload.Get("water")
	if _, err := ProgramCtx(context.Background(), w, VersionN, 4, 1, 128, transform.Config{}); err == nil {
		t.Errorf("water has no N version; Program must fail")
	}
	mf := workload.Get("maxflow")
	if _, err := ProgramCtx(context.Background(), mf, VersionP, 4, 1, 128, transform.Config{}); err == nil {
		t.Errorf("maxflow has no P version; Program must fail")
	}
	if _, err := ProgramCtx(context.Background(), mf, Version("Z"), 4, 1, 128, transform.Config{}); err == nil {
		t.Errorf("unknown version must fail")
	}
}

func TestProgramVersionsCompile(t *testing.T) {
	mf := workload.Get("maxflow")
	for _, v := range Versions(mf) {
		prog, err := ProgramCtx(context.Background(), mf, v, 8, 1, 64, transform.Config{})
		if err != nil {
			t.Fatalf("maxflow %s: %v", v, err)
		}
		if prog.Layout.Nprocs != 8 {
			t.Errorf("%s layout nprocs = %d", v, prog.Layout.Nprocs)
		}
	}
}

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	out := RenderTable1(rows)
	for _, want := range []string{"maxflow", "N C", "12391", "Rendering of 3-dimensional scene"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 1 missing %q:\n%s", want, out)
		}
	}
	// Water is C P only.
	for _, r := range rows {
		if r.Program == "water" && r.Versions != "C P" {
			t.Errorf("water versions = %q", r.Versions)
		}
		if r.Program == "pverify" && r.Versions != "N C P" {
			t.Errorf("pverify versions = %q", r.Versions)
		}
	}
}

// TestVerboseMetricsStream: a verbose recorder over a measurement longer
// than metricsEvery references streams the simulator's progress, one
// line per period, and a recorder that is not verbose gets no sampler.
func TestVerboseMetricsStream(t *testing.T) {
	const procs, block = 12, 64
	mf := workload.Get("maxflow")
	prog, err := ProgramCtx(context.Background(), mf, Baseline(mf), procs, 2, block, transform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	rec := obs.NewRecorder()
	rec.Verbose, rec.LogW = true, &log
	st, err := MeasureConfig(obs.WithRecorder(context.Background(), rec), prog, cache.DefaultConfig(procs, block), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Refs < metricsEvery {
		t.Fatalf("maxflow at scale 2 delivers %d refs, fewer than one metrics period (%d)", st.Refs, metricsEvery)
	}
	var lines []string
	for _, l := range strings.Split(log.String(), "\n") {
		if strings.HasPrefix(l, "obs: metrics sim:b64 ") {
			lines = append(lines, l)
		}
	}
	if want := int(st.Refs / metricsEvery); len(lines) != want {
		t.Fatalf("%d refs streamed %d metrics lines, want %d:\n%s", st.Refs, len(lines), want, log.String())
	}
	for i, l := range lines {
		if want := fmt.Sprintf(" refs=%d", int64(i+1)*metricsEvery); !strings.Contains(l, want) {
			t.Errorf("metrics line %d lacks%s: %s", i, want, l)
		}
	}

	// The sampler hook is unexported; read whether installMetrics set it.
	sampled := func(rec *obs.Recorder) bool {
		sim, err := cache.New(cache.DefaultConfig(procs, block))
		if err != nil {
			t.Fatal(err)
		}
		installMetrics(rec, sim)
		f := reflect.ValueOf(sim).Elem().FieldByName("sampler")
		if !f.IsValid() {
			t.Fatal("cache.Sim has no sampler field")
		}
		return !f.IsNil()
	}
	if !sampled(rec) {
		t.Error("a verbose recorder got no sampler")
	}
	if sampled(obs.NewRecorder()) {
		t.Error("a recorder that is not verbose got a sampler")
	}
	if sampled(nil) {
		t.Error("no recorder, yet a sampler")
	}
}
