package cfg

import (
	"strings"
	"testing"

	"falseshare/internal/lang/ast"
	"falseshare/internal/lang/parser"
)

func parseFn(t *testing.T, src string) *ast.File {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

func TestBuildStraightLine(t *testing.T) {
	f := parseFn(t, `
shared int x;
void main() {
    x = 1;
    x = 2;
    x = 3;
}
`)
	g := Build(f.Func("main"))
	// Entry, Exit, and a single basic node holding all three stores.
	var basics []*Node
	for _, n := range g.Nodes {
		if n.Kind == Basic && len(n.Stmts) > 0 {
			basics = append(basics, n)
		}
	}
	if len(basics) != 1 || len(basics[0].Stmts) != 3 {
		t.Fatalf("expected one basic node with 3 stmts:\n%s", dumpGraph(g))
	}
	if len(g.Entry.Succs) != 1 {
		t.Fatalf("entry successors: %d", len(g.Entry.Succs))
	}
}

func TestBuildIfElse(t *testing.T) {
	f := parseFn(t, `
shared int x;
void main() {
    if (pid == 0) {
        x = 1;
    } else {
        x = 2;
    }
    x = 3;
}
`)
	g := Build(f.Func("main"))
	var branch *Node
	for _, n := range g.Nodes {
		if n.Kind == Branch {
			branch = n
		}
	}
	if branch == nil {
		t.Fatalf("no branch node:\n%s", dumpGraph(g))
	}
	if len(branch.Succs) != 2 {
		t.Fatalf("branch should have 2 successors, has %d", len(branch.Succs))
	}
	if got := ast.PrintExpr(branch.Cond); got != "pid == 0" {
		t.Errorf("cond = %q", got)
	}
	// Both arms must have BranchDepth 1.
	for _, s := range branch.Succs {
		if s.BranchDepth != 1 {
			t.Errorf("arm branch depth = %d, want 1", s.BranchDepth)
		}
	}
}

func TestBuildLoopsDepth(t *testing.T) {
	f := parseFn(t, `
shared int a[100];
void main() {
    for (int i = 0; i < 10; i = i + 1) {
        for (int j = 0; j < 10; j = j + 1) {
            a[i] = a[i] + j;
        }
    }
    while (a[0] > 0) {
        a[0] = a[0] - 1;
    }
}
`)
	g := Build(f.Func("main"))
	maxDepth := 0
	for _, n := range g.Nodes {
		if n.LoopDepth > maxDepth {
			maxDepth = n.LoopDepth
		}
	}
	if maxDepth != 2 {
		t.Fatalf("max loop depth = %d, want 2:\n%s", maxDepth, dumpGraph(g))
	}
	// Every loop back edge must exist: each branch node with a loop
	// body must have at least two predecessors (entry + back edge).
	branches := 0
	for _, n := range g.Nodes {
		if n.Kind == Branch {
			branches++
			if len(n.Preds) < 2 {
				t.Errorf("loop head n%d has %d preds, want >= 2", n.ID, len(n.Preds))
			}
		}
	}
	if branches != 3 {
		t.Errorf("branch nodes = %d, want 3", branches)
	}
}

func TestBarrierNodes(t *testing.T) {
	f := parseFn(t, `
shared int x;
void main() {
    x = 1;
    barrier;
    x = 2;
    barrier;
    x = 3;
}
`)
	g := Build(f.Func("main"))
	if got := len(g.Barriers()); got != 2 {
		t.Fatalf("barriers = %d, want 2", got)
	}
}

func TestReturnEndsFlow(t *testing.T) {
	f := parseFn(t, `
int f(int a) {
    if (a > 0) {
        return 1;
    }
    return 0;
}
void main() { f(1); }
`)
	g := Build(f.Func("f"))
	if len(g.Exit.Preds) != 2 {
		t.Fatalf("exit preds = %d, want 2:\n%s", len(g.Exit.Preds), dumpGraph(g))
	}
}

func TestCallGraph(t *testing.T) {
	f := parseFn(t, `
shared int x;
int leaf(int a) { return a + 1; }
int mid(int a) { return leaf(a) + leaf(a); }
void main() {
    x = mid(1);
    for (int i = 0; i < 10; i = i + 1) {
        x = leaf(x);
    }
}
`)
	cg := BuildProgram(f)
	if len(cg.Graphs) != 3 {
		t.Fatalf("graphs = %d", len(cg.Graphs))
	}
	if !cg.Callees["main"]["mid"] || !cg.Callees["mid"]["leaf"] {
		t.Fatalf("callees wrong: %s", dumpCallGraph(cg))
	}
	// The call inside the loop should be on a node with LoopDepth 1.
	found := false
	for _, s := range cg.Sites {
		if s.Caller == "main" && s.Callee == "leaf" && s.Node.LoopDepth == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("loop-nested call site not found at depth 1")
	}
}

func TestRecursionDetected(t *testing.T) {
	f := parseFn(t, `
int f(int a) {
    if (a == 0) { return 0; }
    return f(a - 1);
}
void main() { f(3); }
`)
	cg := BuildProgram(f)
	if !cg.Callees["f"]["f"] || !cg.Callees["main"]["f"] {
		t.Fatalf("recursive call edge missing: %s", dumpCallGraph(cg))
	}
}

func TestDumpContainsStatements(t *testing.T) {
	f := parseFn(t, `
shared int x;
void main() { x = 42; }
`)
	g := Build(f.Func("main"))
	if !strings.Contains(dumpGraph(g), "x = 42") {
		t.Errorf("dump missing statement:\n%s", dumpGraph(g))
	}
}
