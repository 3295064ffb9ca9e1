package obs

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
)

// StartProfiles starts a CPU profile to cpuPath and returns the stop
// that ends it and then writes a heap profile to memPath (after a GC,
// so live-heap numbers are accurate). An empty path skips that
// profile. The CLIs wire the paths to -cpuprofile and -memprofile and
// call stop on every exit path, os.Exit included: only the first call
// acts, later ones return nil.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	var once sync.Once
	return func() error {
		var err error
		once.Do(func() {
			if cpu != nil {
				pprof.StopCPUProfile()
				err = cpu.Close()
			}
			if memPath != "" {
				err = errors.Join(err, writeHeapProfile(memPath))
			}
		})
		return err
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("heap profile: %w", err)
	}
	return f.Close()
}
