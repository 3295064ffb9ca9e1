package experiments

import (
	"context"
	"testing"

	"falseshare/internal/faultinject"
	"falseshare/internal/transform"
	"falseshare/internal/workload"
)

// TestBuildProgramRecordsDegradation: a verifying experiment cell hit
// by a seeded miscompile still completes — it records the degraded
// objects against the cell key and returns a runnable program.
func TestBuildProgramRecordsDegradation(t *testing.T) {
	s, err := faultinject.Parse("transform.corrupt:error")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(s)
	t.Cleanup(func() { faultinject.Enable(nil) })

	b := workload.Get("pverify")
	if b == nil {
		t.Fatal("pverify workload missing")
	}
	cfg := Config{ConfigSpec: ConfigSpec{Scale: 1, Verify: true}}
	const key = "safemode/pverify/C/b128"
	var ev CellEvents
	prog, err := cfg.buildProgram(WithEvents(context.Background(), &ev), key, b, VersionC, 8, 128, transform.Config{})
	if err != nil {
		t.Fatalf("cell failed instead of degrading: %v", err)
	}
	if prog == nil {
		t.Fatal("no program")
	}

	evs := ev.Degraded
	if len(evs) != 1 || evs[0].Key != key {
		t.Fatalf("events = %+v, want one for %s", evs, key)
	}
	if len(evs[0].Objects) == 0 || len(evs[0].Details) == 0 {
		t.Fatalf("event carries no diagnostics: %+v", evs[0])
	}
	if n := DegradedObjects(evs); n != len(evs[0].Objects) {
		t.Fatalf("DegradedObjects() = %d, want %d", n, len(evs[0].Objects))
	}
}

// TestBuildProgramCleanRecordsNothing: without faults, verifying
// cells record no degrade events; and the N version never verifies.
func TestBuildProgramCleanRecordsNothing(t *testing.T) {
	b := workload.Get("pverify")
	cfg := Config{ConfigSpec: ConfigSpec{Scale: 1, Verify: true}}
	var ev CellEvents
	ctx := WithEvents(context.Background(), &ev)
	for _, ver := range []Version{VersionN, VersionC} {
		if _, err := cfg.buildProgram(ctx, "clean/cell", b, ver, 8, 128, transform.Config{}); err != nil {
			t.Fatalf("%s: %v", ver, err)
		}
	}
	if n := len(ev.Degraded); n != 0 {
		t.Fatalf("clean run recorded %d degrade events: %+v", n, ev.Degraded)
	}
}
