package core

import (
	"errors"
	"testing"

	"falseshare/internal/workload/gen"
)

// FuzzCompile feeds mutated programs to the full restructuring
// pipeline. Panic containment turns stage panics into *InternalError
// — which this fuzz target treats as a crash, not a pass: containment
// exists to keep experiment sweeps alive, not to hide compiler bugs.
func FuzzCompile(f *testing.F) {
	for _, src := range gen.FuzzSeeds() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		res, err := Restructure(src, Options{Nprocs: 4, BlockSize: 64})
		if err != nil {
			var ie *InternalError
			if errors.As(err, &ie) {
				t.Fatalf("pipeline stage %s panicked: %s\n%s\nsource:\n%s", ie.Stage, ie.Value, ie.Stack, src)
			}
			return // rejected input: fine
		}
		// Accepted input: the transformed program must itself survive
		// a compile (it is what experiments will run).
		if _, err := Compile(res.Transformed.Source, Options{Nprocs: 4, BlockSize: 64}); err != nil {
			var ie *InternalError
			if errors.As(err, &ie) {
				t.Fatalf("recompile panicked in %s: %s\nsource:\n%s", ie.Stage, ie.Value, res.Transformed.Source)
			}
			t.Fatalf("transformed program does not recompile: %v\noriginal:\n%s\ntransformed:\n%s",
				err, src, res.Transformed.Source)
		}
	})
}
