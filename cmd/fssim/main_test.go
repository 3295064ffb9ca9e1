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

	"falseshare/internal/sim/trace"
	"falseshare/internal/vm"
)

// update rewrites the golden files instead of comparing:
//
//	go test ./cmd/fssim -update
var update = flag.Bool("update", false, "rewrite golden files with the current output")

// mainArg makes a re-exec of the test binary run fssim's main() on
// the arguments after it, so the tests see exactly what the command
// prints and its exit code.
const mainArg = "-fssim-test-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == mainArg {
		os.Args = append([]string{"fssim"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// fssim runs the command with args in dir and returns its stdout,
// stderr and exit code.
func fssim(t *testing.T, dir string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, append([]string{mainArg}, args...)...)
	cmd.Dir = dir
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

// mustRun runs the command and fails the test unless it exits 0.
func mustRun(t *testing.T, dir string, args ...string) string {
	t.Helper()
	out, errs, code := fssim(t, dir, args...)
	if code != 0 {
		t.Fatalf("fssim %s: exit %d\n%s", strings.Join(args, " "), code, errs)
	}
	return out
}

// wantFailure requires the command to exit 1 with want in its stderr.
func wantFailure(t *testing.T, dir, want string, args ...string) {
	t.Helper()
	_, errs, code := fssim(t, dir, args...)
	if code != 1 || !strings.Contains(errs, want) {
		t.Errorf("fssim %s: exit %d, stderr %q; want exit 1 and %q", strings.Join(args, " "), code, errs, want)
	}
}

// TestGoldenPverify pins the per-block statistics fssim prints for a
// bundled benchmark.
func TestGoldenPverify(t *testing.T) {
	got := mustRun(t, t.TempDir(), "-bench", "pverify", "-p", "4", "-blocks", "16,128")
	path := filepath.Join("testdata", "pverify.golden")
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
		t.Errorf("fssim output differs from %s (rerun with -update if the change is intended)\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestReplay captures a trace with its address-map sidecar and
// replays it: with -diag the replay prints the live run's block
// statistics and attribution tables byte for byte, and each way a
// replay cannot proceed exits 1 with its reason.
func TestReplay(t *testing.T) {
	dir := t.TempDir()
	live := mustRun(t, dir, "-bench", "pverify", "-p", "4", "-blocks", "16,128", "-diag", "-save-trace", "t.trc")
	var kept []string
	for _, line := range strings.SplitAfter(live, "\n") {
		if !strings.HasPrefix(line, "trace: ") && !strings.HasPrefix(line, "address map -> ") {
			kept = append(kept, line)
		}
	}
	want := strings.Join(kept, "")
	if !strings.Contains(want, "--- attribution, block 128 ---") {
		t.Fatalf("live -diag run printed no attribution:\n%s", live)
	}
	if got := mustRun(t, dir, "-replay", "t.trc", "-p", "4", "-blocks", "16,128", "-diag"); got != want {
		t.Errorf("replay -diag differs from the live run\nreplay:\n%s\nlive:\n%s", got, want)
	}

	t.Run("fewer processes than captured", func(t *testing.T) {
		wantFailure(t, dir, "captured with 4 processes", "-replay", "t.trc", "-p", "2")
	})

	t.Run("diag without sidecar", func(t *testing.T) {
		trc, err := os.ReadFile(filepath.Join(dir, "t.trc"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "bare.trc"), trc, 0o644); err != nil {
			t.Fatal(err)
		}
		wantFailure(t, dir, "-diag needs the trace's address-map sidecar", "-replay", "bare.trc", "-p", "4", "-diag")
	})

	t.Run("address out of range", func(t *testing.T) {
		// Four rounds of proc 0 writing A and proc 1 reading and
		// writing A+8, with A = 0xffffff0000000000: bit 63 set.
		f, err := os.Create(filepath.Join(dir, "wild.trc"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		w := trace.NewWriter(f, 2)
		const a = -1 << 40
		for i := 0; i < 4; i++ {
			w.Write(vm.Ref{Proc: 0, Addr: a, Size: 4, Write: true})
			w.Write(vm.Ref{Proc: 1, Addr: a + 8, Size: 4})
			w.Write(vm.Ref{Proc: 1, Addr: a + 8, Size: 4, Write: true})
		}
		if _, err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		side, err := os.ReadFile(filepath.Join(dir, "t.trc.map.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wild.trc.map.json"), side, 0o644); err != nil {
			t.Fatal(err)
		}
		const want = "trace: record 1: address 0xffffff0000000000 out of range"
		wantFailure(t, dir, want, "-replay", "wild.trc", "-p", "2", "-blocks", "64")
		wantFailure(t, dir, want, "-replay", "wild.trc", "-p", "2", "-blocks", "64", "-diag")
	})
}
