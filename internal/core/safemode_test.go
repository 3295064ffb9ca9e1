package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"falseshare/internal/faultinject"
	"falseshare/internal/obs"
	"falseshare/internal/transform"
	"falseshare/internal/workload"
	"falseshare/internal/workload/gen"
)

func enableFaults(t *testing.T, spec string) {
	t.Helper()
	s, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatalf("faultinject.Parse(%q): %v", spec, err)
	}
	faultinject.Enable(s)
	t.Cleanup(func() { faultinject.Enable(nil) })
}

func degradedObjects(res *Result) map[string]bool {
	m := map[string]bool{}
	for _, d := range res.Degraded {
		m[d.Object] = true
	}
	return m
}

// TestApplyFaultDegradesOneObject: a decision whose rewrite fails
// rolls back that object only; every other decision still applies,
// and the output is byte-identical to a run where the object was
// excluded from the start.
func TestApplyFaultDegradesOneObject(t *testing.T) {
	opt := Options{Nprocs: 8, BlockSize: 64, Heuristics: heurLowThreshold()}

	// Control first: exclude busy1 by option, no faults.
	control := restructure(t, gen.Decisions, Options{
		Nprocs: 8, BlockSize: 64, Heuristics: heurLowThreshold(),
		Exclude: []string{"busy1"},
	})
	if len(control.Degraded) != 0 {
		t.Fatalf("exclusion is not degradation; got %v", control.Degraded)
	}

	enableFaults(t, "transform.apply=busy1:error")
	res := restructure(t, gen.Decisions, opt)

	degraded := degradedObjects(res)
	if len(degraded) != 1 || !degraded["busy1"] {
		t.Fatalf("want exactly busy1 degraded, got %v\n%v", degraded, res.Degraded)
	}
	for _, d := range res.Degraded {
		if d.Stage != "apply" {
			t.Errorf("degradation stage = %q, want apply: %v", d.Stage, d)
		}
		if d.Pos == "" {
			t.Errorf("degradation lost its declaration position: %v", d)
		}
	}
	// The grouped vectors and the lock pad still went through.
	k := kinds(res)
	if k[transform.KindGroupTranspose] != 1 || k[transform.KindLockPad] != 1 {
		t.Fatalf("surviving decisions wrong: %v\n%s", k, res.Plan)
	}
	for _, d := range res.Applied {
		if d.Kind == transform.KindPadAlign && decisionNames(d)["busy1"] {
			t.Fatalf("degraded decision still applied: %v", d)
		}
	}

	// Byte-identical to the control: same source, same directives.
	if res.Transformed.Source != control.Transformed.Source {
		t.Errorf("degraded output differs from exclusion control:\n--- degraded ---\n%s\n--- control ---\n%s",
			res.Transformed.Source, control.Transformed.Source)
	}
	if res.Transformed.Dirs.String() != control.Transformed.Dirs.String() {
		t.Errorf("directives differ from exclusion control:\n%s\nvs\n%s",
			res.Transformed.Dirs, control.Transformed.Dirs)
	}
}

func decisionNames(d *transform.Decision) map[string]bool {
	m := map[string]bool{}
	for _, n := range d.Targets() {
		m[n] = true
	}
	return m
}

// TestApplyPanicContained: a panicking rewrite is contained the same
// way a failing one is — the object degrades, nothing crashes, and
// the program still computes the original answer.
func TestApplyPanicContained(t *testing.T) {
	enableFaults(t, "transform.apply=busy1:panic")
	opt := Options{Nprocs: 8, BlockSize: 64, Heuristics: heurLowThreshold()}
	res := restructure(t, gen.Decisions, opt)

	degraded := degradedObjects(res)
	if !degraded["busy1"] {
		t.Fatalf("panicking decision not degraded: %v", res.Degraded)
	}
	found := false
	for _, d := range res.Degraded {
		if d.Object == "busy1" && strings.Contains(d.Stage, "panic") {
			found = true
		}
	}
	if !found {
		t.Errorf("degradation does not record the panic: %v", res.Degraded)
	}
	if got, want := checksum(t, res.Transformed, 8), checksum(t, res.Original, 8); got != want {
		t.Errorf("checksum changed %d -> %d", want, got)
	}
}

// TestLayoutFaultDegrades: a layout failure on the synthesized group
// record is attributed back to the grouping decision, which degrades;
// the original vectors reappear in the output.
func TestLayoutFaultDegrades(t *testing.T) {
	enableFaults(t, "layout=gtv1:error")
	opt := Options{Nprocs: 8, BlockSize: 64, Heuristics: heurLowThreshold()}
	res := restructure(t, gen.Decisions, opt)

	degraded := degradedObjects(res)
	if !degraded["cell"] || !degraded["hits"] {
		t.Fatalf("group members not degraded: %v\n%v", degraded, res.Degraded)
	}
	for _, d := range res.Degraded {
		if d.Stage != "layout" {
			t.Errorf("degradation stage = %q, want layout: %v", d.Stage, d)
		}
	}
	out := res.Transformed.Source
	if !strings.Contains(out, "cell[pid]") || strings.Contains(out, "gtv1") {
		t.Errorf("group rollback incomplete:\n%s", out)
	}
	if got, want := checksum(t, res.Transformed, 8), checksum(t, res.Original, 8); got != want {
		t.Errorf("checksum changed %d -> %d", want, got)
	}
}

// TestCorruptCaughtByVerify is the headline safe-mode property: a
// seeded miscompile (the applier emits a wrong rewrite for the
// grouped vectors) is caught by translation validation, the object
// degrades to the identity layout, and the surviving program passes a
// final validation and computes the original answer.
func TestCorruptCaughtByVerify(t *testing.T) {
	enableFaults(t, "transform.corrupt:error")
	opt := Options{Nprocs: 8, BlockSize: 64, Heuristics: heurLowThreshold(), Verify: true}
	res := restructure(t, gen.Decisions, opt)

	if len(res.Degraded) == 0 {
		t.Fatalf("seeded miscompile not degraded:\n%s", res.Plan)
	}
	degraded := degradedObjects(res)
	if !degraded["cell"] || !degraded["hits"] {
		t.Fatalf("corrupted group not the degraded object: %v", degraded)
	}
	for _, d := range res.Degraded {
		if d.Stage != "verify" {
			t.Errorf("degradation stage = %q, want verify: %v", d.Stage, d)
		}
	}
	if res.Verify == nil || !res.Verify.OK {
		t.Fatalf("final verification not OK:\n%v", res.Verify)
	}
	if got, want := checksum(t, res.Transformed, 8), checksum(t, res.Original, 8); got != want {
		t.Errorf("checksum changed %d -> %d", want, got)
	}
}

// TestVerifyCleanRunNoDegradation: with verification on and no
// faults, nothing degrades and the report covers the shared objects.
func TestVerifyCleanRunNoDegradation(t *testing.T) {
	opt := Options{Nprocs: 8, BlockSize: 64, Heuristics: heurLowThreshold(), Verify: true}
	res := restructure(t, gen.Decisions, opt)
	if len(res.Degraded) != 0 {
		t.Fatalf("clean run degraded objects: %v", res.Degraded)
	}
	if res.Verify == nil || !res.Verify.OK || len(res.Verify.Objects) == 0 {
		t.Fatalf("verification report missing or not OK:\n%v", res.Verify)
	}
}

// TestVerifyNaNProgramValidates: a program that leaves NaN in shared
// memory validates like any other, with no internal error and nothing
// degraded.
func TestVerifyNaNProgramValidates(t *testing.T) {
	const src = `
shared double x[16];
void main() {
    double z = 0.0;
    x[pid] = z / z;
}
`
	res, err := RestructureCtx(context.Background(), src, Options{Nprocs: 4, BlockSize: 16, Verify: true})
	var ie *InternalError
	if errors.As(err, &ie) {
		t.Fatalf("internal error on a NaN result: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degraded) != 0 {
		t.Errorf("NaN result degraded objects: %v", res.Degraded)
	}
	if res.Verify == nil || !res.Verify.OK {
		t.Errorf("verification report missing or not OK:\n%v", res.Verify)
	}
}

// TestVerifyHonoursDeadline: a deadline that expires during
// translation validation stops it, and RestructureCtx reports the
// deadline instead of a validated result.
func TestVerifyHonoursDeadline(t *testing.T) {
	src := workload.Get("maxflow").Source(8)
	opt := Options{Nprocs: 12, BlockSize: 128}
	start := time.Now()
	if _, err := RestructureCtx(context.Background(), src, opt); err != nil {
		t.Fatal(err)
	}
	// Validation at this scale runs two ~10M-instruction VM runs, far
	// longer than the analyses timed above.
	deadline := 2*time.Since(start) + 20*time.Millisecond
	opt.Verify = true
	rec := obs.NewRecorder()
	ctx, cancel := context.WithTimeout(obs.WithRecorder(context.Background(), rec), deadline)
	defer cancel()
	res, err := RestructureCtx(ctx, src, opt)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RestructureCtx(Verify) with a %v deadline = %v, %v; want context.DeadlineExceeded", deadline, res, err)
	}
	if rec.Find("verify") == nil {
		t.Fatalf("the %v deadline expired before validation started", deadline)
	}
}
