package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"falseshare/internal/experiments"
	"falseshare/internal/sim/ksr"
)

// mainArg makes a re-exec of the test binary run fsexp's main() on
// the arguments after it, so the tests see exactly what the command
// prints and its exit code.
const mainArg = "-fsexp-test-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == mainArg {
		os.Args = append([]string{"fsexp"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// fsexp runs the command with args and returns its stdout, stderr and
// exit code.
func fsexp(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, append([]string{mainArg}, args...)...)
	cmd.Dir = t.TempDir()
	cmd.Env = append(os.Environ(), "FSEXP_FAULTS=")
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

// TestGoldenPaperOutput pins fsexp's stdout for the paper's whole
// evaluation at the default configuration: Table 1, Figure 3, the
// aggregates, Table 2 at all six block sizes, and Figure 4 and Table 3
// over the full processor sweep. It takes seconds, so -short skips it.
func TestGoldenPaperOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("the paper's full configuration takes seconds")
	}
	out, errs, code := fsexp(t, "-table1", "-fig3", "-table2", "-fig4", "-table3", "-aggregates")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errs)
	}
	checkGolden(t, "paper", out)
}

// TestKeepGoingPrintsEverySection fails every cell of each section in
// turn and keeps going: the section must still print its (empty)
// result, and the run must exit 1 with the section's cells listed
// under "Failed cells:". A section that runs no cells prints its
// result and exits 0.
func TestKeepGoingPrintsEverySection(t *testing.T) {
	for _, s := range experiments.Sections {
		t.Run(s.Name, func(t *testing.T) {
			set := experiments.SectionSet{
				Sections: []string{s.Name},
				Matrix:   experiments.MatrixOptions{Workloads: 4, Seed: 1, Procs: 8, Block: 64, ScaleMin: true},
				Machine:  ksr.DefaultConfig(),
			}
			e, err := experiments.Collect(experiments.DefaultConfig(), set)
			if err != nil {
				t.Fatal(err)
			}
			out, errs, code := fsexp(t, "-"+s.Name, "-scale-min", "-j", "2", "-matrix-workloads", "4",
				"-keep-going", "-faults", "pool.worker:error")
			if strings.Contains(errs, "panic:") {
				t.Fatalf("panicked:\n%s", errs)
			}
			printed, failed, _ := strings.Cut(out, "Failed cells:\n")
			if strings.TrimSpace(printed) == "" {
				t.Errorf("printed nothing before the failed cells:\n%s", out)
			}
			wantCode := 0
			if e.Len() > 0 {
				wantCode = 1
				if !strings.HasPrefix(failed, s.Name+": ") || !strings.Contains(failed, " cells failed:\n") {
					t.Errorf("no failed cells listed for %s:\n%s", s.Name, out)
				}
			}
			if code != wantCode {
				t.Errorf("exit %d, want %d\n%s", code, wantCode, errs)
			}
		})
	}
}

// TestNoSectionPrintsUsage: without a section flag fsexp prints its
// flags and exits 2.
func TestNoSectionPrintsUsage(t *testing.T) {
	_, errs, code := fsexp(t, "-scale-min")
	if code != 2 || !strings.Contains(errs, "-table1") || !strings.Contains(errs, "-matrix") {
		t.Errorf("exit %d, stderr:\n%s\nwant exit 2 and the section flags", code, errs)
	}
}

// TestRejectsOutOfRangeNumbers: a numeric flag no run can use fails
// before any cell runs, with exit 1, nothing on stdout and a message
// naming the flag, instead of running on a silent default or failing
// every cell.
func TestRejectsOutOfRangeNumbers(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-scale", "0"},
		{"-matrix-workloads", "-3"},
		{"-matrix-procs", "0"},
		{"-matrix-procs", "65"},
		{"-matrix-block", "48"},
		{"-matrix-block", "65536"},
	} {
		t.Run(tc.flag[1:], func(t *testing.T) {
			out, errs, code := fsexp(t, "-matrix", "-scale-min", "-matrix-workloads", "2", tc.flag, tc.value)
			if code != 1 || out != "" || !strings.Contains(errs, "fsexp: "+tc.flag+" must be ") {
				t.Errorf("%s %s: exit %d, stdout:\n%s\nstderr:\n%s\nwant exit 1, no output and an error naming %s", tc.flag, tc.value, code, out, errs, tc.flag)
			}
		})
	}
}
