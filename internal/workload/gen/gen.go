// Package gen is a seeded, deterministic parc workload generator: the
// population behind fsexp -matrix. The ten hand-built kernels pin the
// paper's Table 1 programs; gen produces arbitrarily many small
// programs with controlled sharing structure — the knobs are the
// sharing patterns those kernels exhibit (strided array sweeps,
// migratory ownership, producer/consumer broadcast, lock-protected
// reductions) plus a false-sharing injection rate — so the
// transformation heuristics and the protocol/topology matrix can be
// judged on a program population instead of a fixed suite.
//
// Determinism is the contract: Generate is a pure function of Params
// (same Params → byte-identical source, locked down by
// FuzzWorkloadGen), and Corpus enumerates a reproducible population
// from a single seed.
package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"falseshare/internal/workload"
)

// Pattern selects the dominant sharing structure of a generated
// program.
type Pattern int

const (
	// Stride: every process sweeps a shared array with a configurable
	// element stride, so block-level interleaving (and with it true
	// and false sharing) is a function of Params.Stride — the
	// generated analogue of the paper's badly-laid-out vectors.
	Stride Pattern = iota
	// Chunked: every process owns a contiguous chunk of the shared
	// array — the layout the transformations try to produce. Sharing
	// only happens on chunk-boundary blocks.
	Chunked
	// Migratory: phases of whole-array ownership passed around the
	// processes barrier-to-barrier (the MESI-friendly pattern).
	Migratory
	// ProdCons: process 0 rewrites the array each round, everyone
	// else reads it back (the write-update-friendly pattern).
	ProdCons

	patternCount
)

func (p Pattern) String() string {
	switch p {
	case Stride:
		return "stride"
	case Chunked:
		return "chunked"
	case Migratory:
		return "migratory"
	case ProdCons:
		return "prodcons"
	}
	return fmt.Sprintf("pattern(%d)", int(p))
}

// Patterns returns every generator pattern, in enum order.
func Patterns() []Pattern {
	return []Pattern{Stride, Chunked, Migratory, ProdCons}
}

// Params parameterizes one generated program. The zero value is
// valid: Clamped fills every knob with its floor.
type Params struct {
	// Seed varies the arithmetic constants of the program body, so
	// distinct seeds with identical knobs still produce distinct
	// (but structurally identical) programs.
	Seed int64
	// Pattern is the dominant sharing structure.
	Pattern Pattern
	// Elems is the shared array length, clamped to [64, 4096] and
	// rounded to a multiple of 64 so per-process chunks divide evenly
	// at any nprocs up to 64.
	Elems int
	// Rounds is the outer iteration count, clamped to [2, 64].
	Rounds int
	// StrideElems is the element stride of the Stride pattern,
	// clamped to [1, 16] (ignored by the other patterns).
	StrideElems int
	// LockPct is the percentage of rounds that take the global lock
	// and update its (deliberately co-allocated) counter, clamped to
	// [0, 100]. 0 omits the lock entirely.
	LockPct int
	// FalseSharePct is the percentage of rounds injecting an update
	// to a pid-indexed, unpadded counter array — the canonical
	// false-sharing pathology the transformations exist to fix —
	// clamped to [0, 100]. 0 omits the array.
	FalseSharePct int
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Clamped returns the parameters with every knob forced into its
// documented range; Generate applies it internally, so out-of-range
// values (fuzz inputs included) are never an error.
func (p Params) Clamped() Params {
	if p.Pattern < 0 || p.Pattern >= patternCount {
		p.Pattern = Pattern(((int(p.Pattern) % int(patternCount)) + int(patternCount)) % int(patternCount))
	}
	p.Elems = clampInt(p.Elems, 64, 4096)
	p.Elems -= p.Elems % 64
	p.Rounds = clampInt(p.Rounds, 2, 64)
	p.StrideElems = clampInt(p.StrideElems, 1, 16)
	p.LockPct = clampInt(p.LockPct, 0, 100)
	p.FalseSharePct = clampInt(p.FalseSharePct, 0, 100)
	return p
}

// Name returns a stable identifier encoding every knob — the matrix
// cell key and manifest name for the generated program.
func (p Params) Name() string {
	p = p.Clamped()
	return fmt.Sprintf("%s-e%d-r%d-s%d-l%d-f%d-x%04x",
		p.Pattern, p.Elems, p.Rounds, p.StrideElems, p.LockPct, p.FalseSharePct, p.Seed&0xffff)
}

// pctEvery converts a percentage of rounds into an "every k rounds"
// period (the generated programs gate side work on r %% k == 0).
func pctEvery(pct int) int {
	if pct <= 0 {
		return 0
	}
	if pct >= 100 {
		return 1
	}
	return 100 / pct
}

// Generate renders the parc source for p. It is a pure function:
// byte-identical output for equal Params.
func Generate(p Params) string {
	p = p.Clamped()
	rng := rand.New(rand.NewSource(p.Seed))
	addA := 1 + rng.Intn(7)
	addB := 1 + rng.Intn(7)
	mulInit := 1 + rng.Intn(5)
	modInit := 7 + rng.Intn(9)

	var b strings.Builder
	fmt.Fprintf(&b, "// gen: %s (seed %d)\n", p.Name(), p.Seed)
	fmt.Fprintf(&b, "shared int data[%d];\n", p.Elems)
	b.WriteString("shared int out[64];\n")
	if p.FalseSharePct > 0 {
		// The injected pathology: one int per process, unpadded, so up
		// to block/4 processes ping-pong each block.
		b.WriteString("shared int fscnt[64];\n")
	}
	if p.LockPct > 0 {
		// Lock and counter deliberately co-allocated (the paper's lock
		// padding target).
		b.WriteString("shared int locked_total;\nlock glock;\n")
	}
	b.WriteString("\nvoid main() {\n")

	// Initialization: process 0 seeds the array, everyone waits.
	fmt.Fprintf(&b, `    if (pid == 0) {
        for (int i = 0; i < %d; i = i + 1) {
            data[i] = (i * %d) %% %d;
        }
    }
    barrier;
`, p.Elems, mulInit, modInit)

	b.WriteString("    int acc;\n    acc = 0;\n")
	fmt.Fprintf(&b, "    for (int r = 0; r < %d; r = r + 1) {\n", p.Rounds)

	switch p.Pattern {
	case Stride:
		// Interleaved sweep: process k touches elements k, k+stride*nprocs, ...
		fmt.Fprintf(&b, `        for (int i = pid * %[1]d; i < %[2]d; i = i + %[1]d * nprocs) {
            data[i] = data[i] + %[3]d;
            acc = acc + data[i];
        }
`, p.StrideElems, p.Elems, addA)
	case Chunked:
		fmt.Fprintf(&b, `        int lo;
        int hi;
        lo = pid * (%[1]d / nprocs);
        hi = lo + %[1]d / nprocs;
        for (int i = lo; i < hi; i = i + 1) {
            data[i] = data[i] + %[2]d;
            acc = acc + data[i];
        }
`, p.Elems, addA)
	case Migratory:
		// One owner per round sweeps the whole array; the barrier
		// hands it off.
		fmt.Fprintf(&b, `        if (r %% nprocs == pid) {
            for (int i = 0; i < %[1]d; i = i + 1) {
                data[i] = data[i] + %[2]d;
                acc = acc + data[i];
            }
        }
        barrier;
`, p.Elems, addA)
	case ProdCons:
		fmt.Fprintf(&b, `        if (pid == 0) {
            for (int i = 0; i < %[1]d; i = i + 1) {
                data[i] = data[i] + %[2]d;
            }
        }
        barrier;
        if (pid != 0) {
            for (int i = 0; i < %[1]d; i = i + 1) {
                acc = acc + data[i];
            }
        }
        barrier;
`, p.Elems, addA)
	}

	if every := pctEvery(p.FalseSharePct); every > 0 {
		fmt.Fprintf(&b, `        if (r %% %d == 0) {
            fscnt[pid] = fscnt[pid] + %d;
        }
`, every, addB)
	}
	if every := pctEvery(p.LockPct); every > 0 {
		fmt.Fprintf(&b, `        if (r %% %d == 0) {
            acquire(glock);
            locked_total = locked_total + 1;
            release(glock);
        }
`, every)
	}

	b.WriteString("    }\n    out[pid] = acc;\n}\n")
	return b.String()
}

// Benchmark wraps the generated program as a workload.Benchmark
// (unregistered — matrix cells address it directly). Scale multiplies
// Rounds, mirroring how the hand-built kernels scale work.
func Benchmark(p Params) *workload.Benchmark {
	p = p.Clamped()
	return &workload.Benchmark{
		Name:        p.Name(),
		Description: fmt.Sprintf("generated %s workload", p.Pattern),
		HasN:        true,
		FigureRef:   "fsexp -matrix",
		Source: func(scale int) string {
			q := p
			if scale > 1 {
				q.Rounds = clampInt(q.Rounds*scale, 2, 64)
			}
			return Generate(q)
		},
	}
}

// Corpus enumerates n parameter sets from one seed: patterns cycle in
// enum order while every knob is drawn from the full clamped range,
// so any prefix of the population already mixes all four patterns.
func Corpus(n int, seed int64) []Params {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Params, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Params{
			Seed:          rng.Int63() & 0xffff,
			Pattern:       Pattern(i % int(patternCount)),
			Elems:         64 * (1 + rng.Intn(8)),
			Rounds:        2 + rng.Intn(15),
			StrideElems:   1 + rng.Intn(16),
			LockPct:       rng.Intn(4) * 25,
			FalseSharePct: rng.Intn(5) * 25,
		})
	}
	return out
}
