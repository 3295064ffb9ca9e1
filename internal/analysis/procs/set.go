// Package procs implements per-process control-flow analysis (stage 1
// of the paper's compile-time analysis): it computes, for every
// control-flow graph node, the set of processes that may execute it.
//
// Branches whose conditions are decidable per process id (via PDVs)
// split the process set; everything else passes the set through
// unchanged. Function base sets are the union of the sets at their
// call sites, computed to a fixed point over the call graph, so code
// like "if (pid == 0) initialize();" attributes the callee's side
// effects to process 0 only.
package procs

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxProcs bounds the analyzable process count (one bit per process).
const MaxProcs = 64

// Set is a bit set of process ids.
type Set uint64

// All returns the set {0..n-1}.
func All(n int) Set {
	if n >= MaxProcs {
		return ^Set(0)
	}
	return Set(1)<<uint(n) - 1
}

// Single returns the singleton {p}.
func Single(p int) Set { return Set(1) << uint(p) }

// Has reports whether p is in the set.
func (s Set) Has(p int) bool { return s&Single(p) != 0 }

// Add returns s with p added.
func (s Set) Add(p int) Set { return s | Single(p) }

// Union returns s with t added.
func (s Set) Union(t Set) Set { return s | t }

// Minus returns the processes in s but not t.
func (s Set) Minus(t Set) Set { return s &^ t }

// Count returns the number of processes in the set.
func (s Set) Count() int { return bits.OnesCount64(uint64(s)) }

// Empty reports whether the set has no processes.
func (s Set) Empty() bool { return s == 0 }

// Procs returns the member ids in increasing order.
func (s Set) Procs() []int {
	out := make([]int, 0, s.Count())
	for p := 0; p < MaxProcs && s != 0; p++ {
		if s.Has(p) {
			out = append(out, p)
			s = s.Minus(Single(p))
		}
	}
	return out
}

// String renders the set as {0,1,2} or {0..11} when contiguous.
func (s Set) String() string {
	ps := s.Procs()
	if len(ps) == 0 {
		return "{}"
	}
	contiguous := true
	for i := 1; i < len(ps); i++ {
		if ps[i] != ps[i-1]+1 {
			contiguous = false
			break
		}
	}
	if contiguous && len(ps) > 2 {
		return fmt.Sprintf("{%d..%d}", ps[0], ps[len(ps)-1])
	}
	strs := make([]string, len(ps))
	for i, p := range ps {
		strs[i] = fmt.Sprintf("%d", p)
	}
	return "{" + strings.Join(strs, ",") + "}"
}
