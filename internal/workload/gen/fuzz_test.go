package gen

import (
	"errors"
	"testing"

	"falseshare/internal/core"
	"falseshare/internal/lang/parser"
)

// FuzzWorkloadGen drives the generator with arbitrary knob values.
// Whatever the fuzzer supplies, Clamped must fold it into a valid
// parameter set whose program parses, restructures, and
// translation-validates — a generated program rejected by any
// pipeline stage, a contained stage panic (*core.InternalError), or a
// safe-mode degradation is a generator bug. The determinism contract
// (same Params → byte-identical source) is asserted on every input,
// since the matrix harness relies on it to resume from the cell store.
//
// The seed corpus under testdata/fuzz/FuzzWorkloadGen covers every
// pattern at its knob extremes; go test runs it on every invocation.
func FuzzWorkloadGen(f *testing.F) {
	for _, p := range Corpus(8, 42) {
		f.Add(p.Seed, int(p.Pattern), p.Elems, p.Rounds, p.StrideElems, p.LockPct, p.FalseSharePct)
	}
	f.Fuzz(func(t *testing.T, seed int64, pattern, elems, rounds, stride, lockPct, fsPct int) {
		p := Params{
			Seed:          seed,
			Pattern:       Pattern(pattern),
			Elems:         elems,
			Rounds:        rounds,
			StrideElems:   stride,
			LockPct:       lockPct,
			FalseSharePct: fsPct,
		}
		src := Generate(p)
		if again := Generate(p); again != src {
			t.Fatalf("Generate(%+v) not deterministic", p)
		}
		if _, err := parser.Parse(src); err != nil {
			t.Fatalf("generated program does not parse: %v\n%s", err, src)
		}
		res, err := core.Restructure(src, core.Options{Nprocs: 3, BlockSize: 64, Verify: true, VerifyBudget: 20_000_000})
		if err != nil {
			var ie *core.InternalError
			if errors.As(err, &ie) {
				t.Fatalf("pipeline stage %s panicked: %s\n%s\nsource:\n%s", ie.Stage, ie.Value, ie.Stack, src)
			}
			t.Fatalf("generated program does not restructure: %v\n%s", err, src)
		}
		if len(res.Degraded) != 0 {
			t.Fatalf("safe mode degraded %d objects on a generated program: %+v\n%s",
				len(res.Degraded), res.Degraded, src)
		}
		if res.Verify != nil && !res.Verify.OK {
			t.Fatalf("translation validation failed: %s\n%s", res.Verify, src)
		}
	})
}
