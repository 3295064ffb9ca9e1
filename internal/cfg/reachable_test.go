package cfg

import (
	"testing"

	"falseshare/internal/lang/ast"
)

func TestReachableStopsAtBarriers(t *testing.T) {
	f := parseFn(t, `
shared int a;
void main() {
    a = 1;
    barrier;
    a = 2;
    barrier;
    a = 3;
}
`)
	g := Build(f.Func("main"))
	isBarrier := func(n *Node) bool { return n.Kind == Barrier }

	region := g.Reachable(g.Entry, isBarrier)
	// The first region must contain the a=1 node, the first barrier
	// (frontier), but not the a=2 node.
	var firstAssign, secondAssign *Node
	for _, n := range g.Nodes {
		for _, s := range n.Stmts {
			switch PrintishStmt(s) {
			case "a = 1;":
				firstAssign = n
			case "a = 2;":
				secondAssign = n
			}
		}
	}
	if firstAssign == nil || secondAssign == nil {
		t.Fatalf("assign nodes not found:\n%s", dumpGraph(g))
	}
	if !region[firstAssign] {
		t.Errorf("first region misses a=1")
	}
	if region[secondAssign] {
		t.Errorf("first region must stop at the barrier")
	}

	// From the first barrier: reaches a=2 but not a=3.
	b1 := g.Barriers()[0]
	region2 := g.Reachable(b1, isBarrier)
	if !region2[secondAssign] {
		t.Errorf("second region misses a=2")
	}
}

func TestReachableThroughLoop(t *testing.T) {
	f := parseFn(t, `
shared int a;
void main() {
    for (int i = 0; i < 3; i = i + 1) {
        a = a + 1;
        barrier;
    }
    a = 9;
}
`)
	g := Build(f.Func("main"))
	isBarrier := func(n *Node) bool { return n.Kind == Barrier }
	b := g.Barriers()[0]
	region := g.Reachable(b, isBarrier)
	// From the in-loop barrier, control flows around the loop back to
	// a=a+1 and out to a=9, stopping at the barrier itself.
	sawBody, sawAfter := false, false
	for n := range region {
		for _, s := range n.Stmts {
			switch PrintishStmt(s) {
			case "a = a + 1;":
				sawBody = true
			case "a = 9;":
				sawAfter = true
			}
		}
	}
	if !sawBody || !sawAfter {
		t.Errorf("loop region: body=%v after=%v", sawBody, sawAfter)
	}
}

// PrintishStmt renders a statement in canonical single-line form for
// test matching.
func PrintishStmt(s ast.Stmt) string { return ast.PrintStmt(s) }
