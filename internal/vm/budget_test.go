package vm_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"falseshare/internal/core"
	"falseshare/internal/faultinject"
	"falseshare/internal/vm"
)

// spinSource loops forever: the shape of a restructurer bug that
// produces a non-terminating program.
const spinSource = `
shared int sink[4];
void main() {
    int i;
    i = 0;
    while (i < 2000000000) {
        sink[pid % 4] = i;
        i = i + 1;
    }
}
`

// TestStepBudgetExceeded: a runaway program fails with a step-budget
// error naming the instruction count and pc instead of hanging.
func TestStepBudgetExceeded(t *testing.T) {
	prog, err := core.CompileCtx(context.Background(), spinSource, core.Options{Nprocs: 2, BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(bc)
	m.MaxInstrs = 50_000 // small cap so the test is instant
	err = m.Run(nil)
	if err == nil {
		t.Fatal("runaway program terminated?")
	}
	var re *vm.RunError
	if !errors.As(err, &re) {
		t.Fatalf("want *vm.RunError, got %T: %v", err, err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "step budget exceeded (50000 instrs)") || !strings.Contains(msg, "at pc=") {
		t.Errorf("budget error lacks count/pc: %q", msg)
	}
}

// TestRunCancellation: cancelling the machine's context stops the run
// promptly with the context's error.
func TestRunCancellation(t *testing.T) {
	prog, err := core.CompileCtx(context.Background(), spinSource, core.Options{Nprocs: 2, BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(bc)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	m.SetContext(ctx)
	start := time.Now()
	err = m.Run(nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancellation took %v to take effect", d)
	}
}

// TestRunFaultPoint: an injected vm.run error aborts the run before
// any instruction executes.
func TestRunFaultPoint(t *testing.T) {
	s, err := faultinject.Parse("vm.run:error:count=1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(s)
	t.Cleanup(func() { faultinject.Enable(nil) })

	prog, err := core.CompileCtx(context.Background(), spinSource, core.Options{Nprocs: 2, BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(bc)
	m.MaxInstrs = 1000
	var fe *faultinject.Error
	if err := m.Run(nil); !errors.As(err, &fe) {
		t.Fatalf("want injected fault, got %v", err)
	}
	if m.TotalInstrs() != 0 {
		t.Errorf("instructions ran before the fault: %d", m.TotalInstrs())
	}
}
