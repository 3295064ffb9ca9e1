package faultinject

import (
	"context"
	"strings"
	"testing"
)

// The exit and corrupt modes serve the artifact store's fault point,
// which fires them at "put/<key>" and "rename/<key>" (see
// internal/artifact's store tests); these tests pin their parse and
// fire semantics without a store or a dying process in the loop.

func TestExitMode(t *testing.T) {
	defer Enable(nil)
	var code = -1
	defer func(orig func(int)) { osExit = orig }(osExit)
	osExit = func(c int) { code = c }

	s, err := Parse("cell.store=rename/alpha:exit")
	if err != nil {
		t.Fatal(err)
	}
	Enable(s)
	Fire(context.Background(), "cell.store", "rename/bravo")
	if code != -1 {
		t.Fatalf("exit fired on a non-matching entry (code %d)", code)
	}
	Fire(context.Background(), "cell.store", "rename/alpha")
	if code != 3 {
		t.Fatalf("exit code = %d, want default 3", code)
	}
}

func TestExitModeCustomCode(t *testing.T) {
	defer Enable(nil)
	var code = -1
	defer func(orig func(int)) { osExit = orig }(osExit)
	osExit = func(c int) { code = c }

	s, err := Parse("cell.store:exit=7:count=1")
	if err != nil {
		t.Fatal(err)
	}
	Enable(s)
	Fire(context.Background(), "cell.store", "put/k")
	if code != 7 {
		t.Fatalf("exit code = %d, want 7", code)
	}
	// count=1 exhausted: a second hit must not exit again. (In a real
	// process the first Fire never returns; the stubbed osExit does.)
	code = -1
	Fire(context.Background(), "cell.store", "put/k")
	if code != -1 {
		t.Fatal("exit fired past its count")
	}
}

func TestExitParseErrors(t *testing.T) {
	for _, spec := range []string{
		"cell.store:exit=abc",
		"cell.store:exit=-1",
		"cell.store:exit=256",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted an invalid exit status", spec)
		}
	}
}

func TestCorruptMode(t *testing.T) {
	defer Enable(nil)
	s, err := Parse("cell.store=put/alpha:corrupt:count=1")
	if err != nil {
		t.Fatal(err)
	}
	Enable(s)
	if err := Fire(context.Background(), "cell.store", "put/bravo"); err != nil {
		t.Fatalf("corrupt fired on a non-matching put: %v", err)
	}
	err = Fire(context.Background(), "cell.store", "put/alpha")
	if err == nil {
		t.Fatal("corrupt rule did not fire")
	}
	if !IsCorrupt(err) {
		t.Errorf("IsCorrupt(%v) = false, want true", err)
	}
	if !strings.Contains(err.Error(), "cell.store") {
		t.Errorf("error %q does not name the point", err)
	}
	// Exhausted.
	if err := Fire(context.Background(), "cell.store", "put/alpha"); err != nil {
		t.Fatalf("corrupt fired past its count: %v", err)
	}
	// A plain injected error is not corrupt.
	if IsCorrupt(&Error{Point: "p"}) {
		t.Error("plain injected error reported as corrupt")
	}
}
