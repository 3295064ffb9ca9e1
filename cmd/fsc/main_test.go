package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"falseshare/internal/workload"
)

// update rewrites the golden files instead of comparing:
//
//	go test ./cmd/fsc -update
var update = flag.Bool("update", false, "rewrite golden files with the current output")

// mainArg makes a re-exec of the test binary run fsc's main() on the
// arguments after it, so the tests see exactly what the command
// prints and its exit code.
const mainArg = "-fsc-test-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == mainArg {
		os.Args = append([]string{"fsc"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// fsc runs the command with args and returns its stdout, stderr and
// exit code.
func fsc(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, append([]string{mainArg}, args...)...)
	cmd.Dir = t.TempDir()
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatal(err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errb.String(), code
}

// TestGoldenMaxflowDiag pins what fsc prints for maxflow with -diag:
// the plan, the layout directives, the attribution tables of the
// original and the transformed program, and the diagnosis that pairs
// them per applied decision.
func TestGoldenMaxflowDiag(t *testing.T) {
	got, errs, code := fsc(t, "-bench", "maxflow", "-p", "4", "-b", "128", "-diag")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errs)
	}
	path := filepath.Join("testdata", "maxflow_diag.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("fsc output differs from %s (rerun with -update if the change is intended)\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestUnknownBenchmark: an unknown -bench exits 1 and lists the
// bundled benchmarks.
func TestUnknownBenchmark(t *testing.T) {
	_, errs, code := fsc(t, "-bench", "nosuch")
	want := "fsc: unknown benchmark \"nosuch\" (choose from: " + strings.Join(workload.Names(), ", ") + ")"
	if code != 1 || !strings.Contains(errs, want) {
		t.Errorf("exit %d, stderr %q; want exit 1 and %q", code, errs, want)
	}
}
