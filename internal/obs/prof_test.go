package obs

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartProfiles: stop ends the CPU profile and writes the heap
// profile, both non-empty; a second stop does nothing, so exit paths
// may call it unconditionally.
func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(p))
		}
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}

	if err := stop(); err != nil {
		t.Errorf("second stop: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("second stop rewrote %s", filepath.Base(p))
		}
	}
}
