package faultinject

import (
	"context"
	"strings"
	"testing"
)

// The exit and corrupt modes were added for the distributed fabric's
// chaos testing; these tests pin their parse and fire semantics
// without a worker process in the loop.

func TestExitMode(t *testing.T) {
	defer Enable(nil)
	var code = -1
	defer func(orig func(int)) { osExit = orig }(osExit)
	osExit = func(c int) { code = c }

	s, err := Parse("worker.cell=matrix/gen-001:exit")
	if err != nil {
		t.Fatal(err)
	}
	Enable(s)
	Fire(context.Background(), "worker.cell", "matrix/gen-002/mesi/flat")
	if code != -1 {
		t.Fatalf("exit fired on a non-matching cell (code %d)", code)
	}
	Fire(context.Background(), "worker.cell", "matrix/gen-001/mesi/flat")
	if code != 3 {
		t.Fatalf("exit code = %d, want default 3", code)
	}
}

func TestExitModeCustomCode(t *testing.T) {
	defer Enable(nil)
	var code = -1
	defer func(orig func(int)) { osExit = orig }(osExit)
	osExit = func(c int) { code = c }

	s, err := Parse("worker.cell:exit=7:count=1")
	if err != nil {
		t.Fatal(err)
	}
	Enable(s)
	Fire(context.Background(), "worker.cell", "k")
	if code != 7 {
		t.Fatalf("exit code = %d, want 7", code)
	}
	// count=1 exhausted: a second hit must not exit again. (In a real
	// worker the first Fire never returns; the stubbed osExit does.)
	code = -1
	Fire(context.Background(), "worker.cell", "k")
	if code != -1 {
		t.Fatal("exit fired past its count")
	}
}

func TestExitParseErrors(t *testing.T) {
	for _, spec := range []string{
		"worker.cell:exit=abc",
		"worker.cell:exit=-1",
		"worker.cell:exit=256",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted an invalid exit status", spec)
		}
	}
}

func TestCorruptMode(t *testing.T) {
	defer Enable(nil)
	s, err := Parse("worker.send=matrix/gen-001:corrupt:count=1")
	if err != nil {
		t.Fatal(err)
	}
	Enable(s)
	if err := Fire(context.Background(), "worker.send", "matrix/gen-002/x"); err != nil {
		t.Fatalf("corrupt fired on a non-matching send: %v", err)
	}
	err = Fire(context.Background(), "worker.send", "matrix/gen-001/x")
	if err == nil {
		t.Fatal("corrupt rule did not fire")
	}
	if !IsCorrupt(err) {
		t.Errorf("IsCorrupt(%v) = false, want true", err)
	}
	if !strings.Contains(err.Error(), "worker.send") {
		t.Errorf("error %q does not name the point", err)
	}
	// Exhausted.
	if err := Fire(context.Background(), "worker.send", "matrix/gen-001/x"); err != nil {
		t.Fatalf("corrupt fired past its count: %v", err)
	}
	// A plain injected error is not corrupt.
	if IsCorrupt(&Error{Point: "p"}) {
		t.Error("plain injected error reported as corrupt")
	}
}
