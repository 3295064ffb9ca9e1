// Package nonconc implements non-concurrency analysis (stage 2 of the
// paper's compile-time analysis, after Jeremiassen & Eggers PACT'94 and
// Masticola & Ryder): it uses the barrier synchronization structure to
// partition the program into phases that cannot execute concurrently
// and computes the flow of control between them.
//
// Phases let the side-effect analysis detect when the sharing pattern
// of a data structure shifts during execution; coupled with static
// profiling they determine the dominant pattern the data is
// restructured for.
package nonconc

import (
	"fmt"
	"strings"

	"falseshare/internal/cfg"
	"falseshare/internal/lang/ast"
)

// PhaseSet is a bit set of phase ids (at most 64 static phases).
type PhaseSet uint64

// MaxPhases bounds the number of analyzable static phases.
const MaxPhases = 64

// Has reports whether phase p is in the set.
func (s PhaseSet) Has(p int) bool { return s&(1<<uint(p)) != 0 }

// Add returns s with phase p added.
func (s PhaseSet) Add(p int) PhaseSet { return s | 1<<uint(p) }

// Union returns the union of the sets.
func (s PhaseSet) Union(t PhaseSet) PhaseSet { return s | t }

// Empty reports whether the set is empty.
func (s PhaseSet) Empty() bool { return s == 0 }

// Phases returns the member phase ids in increasing order.
func (s PhaseSet) Phases() []int {
	var out []int
	for p := 0; p < MaxPhases && s != 0; p++ {
		if s.Has(p) {
			out = append(out, p)
			s &^= 1 << uint(p)
		}
	}
	return out
}

// String renders the set.
func (s PhaseSet) String() string {
	ps := s.Phases()
	strs := make([]string, len(ps))
	for i, p := range ps {
		strs[i] = fmt.Sprintf("%d", p)
	}
	return "{" + strings.Join(strs, ",") + "}"
}

// Result is the phase partition of a program.
type Result struct {
	// N is the number of static phases: one per barrier statement in
	// main, plus the initial phase 0.
	N int
	// NodePhases maps each node of main's CFG to the phases in which
	// it can execute.
	NodePhases map[*cfg.Node]PhaseSet
	// FuncPhases maps every function to the phases in which it can be
	// called (transitively).
	FuncPhases map[string]PhaseSet
	// Succ is the phase control-flow relation: Succ[i] holds j when
	// control can pass from phase i to phase j by crossing a barrier.
	Succ map[int]PhaseSet
	// BarrierPhase maps each barrier statement to the phase it begins.
	BarrierPhase map[*ast.BarrierStmt]int
}

func allPhases(n int) PhaseSet {
	if n >= MaxPhases {
		return ^PhaseSet(0)
	}
	return PhaseSet(1)<<uint(n) - 1
}

// Analyze computes the phase partition. parc restricts barriers to
// main; a barrier in any other function is reported as an error.
func Analyze(prog *cfg.CallGraph) (*Result, error) {
	for name, g := range prog.Graphs {
		if name == "main" {
			continue
		}
		if bs := g.Barriers(); len(bs) > 0 {
			return nil, fmt.Errorf("nonconc: barrier at %s in function %q: parc allows barriers only in main", bs[0].Barrier.P, name)
		}
	}
	main := prog.Graphs["main"]
	if main == nil {
		return nil, fmt.Errorf("nonconc: program has no main")
	}

	barriers := main.Barriers()
	if len(barriers)+1 > MaxPhases {
		return nil, fmt.Errorf("nonconc: program has %d barriers; at most %d phases are supported", len(barriers), MaxPhases-1)
	}

	res := &Result{
		N:            len(barriers) + 1,
		NodePhases:   map[*cfg.Node]PhaseSet{},
		FuncPhases:   map[string]PhaseSet{},
		Succ:         map[int]PhaseSet{},
		BarrierPhase: map[*ast.BarrierStmt]int{},
	}

	isBarrier := func(n *cfg.Node) bool { return n.Kind == cfg.Barrier }
	barrierID := map[*cfg.Node]int{}
	for i, b := range barriers {
		barrierID[b] = i + 1
		res.BarrierPhase[b.Barrier] = i + 1
	}

	// region(start, phase): all nodes reachable from start without
	// crossing a barrier belong to the phase; barriers on the frontier
	// define phase successors.
	mark := func(start *cfg.Node, phase int) {
		region := main.Reachable(start, isBarrier)
		for n := range region {
			res.NodePhases[n] = res.NodePhases[n].Add(phase)
			if id, ok := barrierID[n]; ok && n != start {
				res.Succ[phase] = res.Succ[phase].Add(id)
			}
		}
	}
	mark(main.Entry, 0)
	for _, b := range barriers {
		mark(b, barrierID[b])
	}

	// Function phases: seeded from call sites in main, then propagated
	// through the call graph to a fixed point.
	for name := range prog.Graphs {
		res.FuncPhases[name] = 0
	}
	res.FuncPhases["main"] = allPhases(res.N)
	for iter := 0; iter < len(prog.Graphs)+2; iter++ {
		changed := false
		for _, site := range prog.Sites {
			var ps PhaseSet
			if site.Caller == "main" {
				ps = res.NodePhases[site.Node]
			} else {
				ps = res.FuncPhases[site.Caller]
			}
			old := res.FuncPhases[site.Callee]
			nw := old.Union(ps)
			if nw != old {
				res.FuncPhases[site.Callee] = nw
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return res, nil
}
