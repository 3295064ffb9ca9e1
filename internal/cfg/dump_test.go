package cfg

import (
	"fmt"
	"sort"
	"strings"

	"falseshare/internal/lang/ast"
)

// dumpGraph renders a graph for test failure messages.
func dumpGraph(g *Graph) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cfg %s:\n", g.Fn.Name)
	for _, n := range g.Nodes {
		fmt.Fprintf(&sb, "  n%d %s ld=%d bd=%d ->", n.ID, n.Kind, n.LoopDepth, n.BranchDepth)
		for _, s := range n.Succs {
			fmt.Fprintf(&sb, " n%d", s.ID)
		}
		if n.Cond != nil {
			fmt.Fprintf(&sb, " cond=%s", ast.PrintExpr(n.Cond))
		}
		for _, s := range n.Stmts {
			fmt.Fprintf(&sb, "\n      %s", strings.ReplaceAll(ast.PrintStmt(s), "\n", " "))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// dumpCallGraph renders a call graph for test failure messages.
func dumpCallGraph(cg *CallGraph) string {
	var sb strings.Builder
	names := make([]string, 0, len(cg.Graphs))
	for n := range cg.Graphs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		callees := make([]string, 0, len(cg.Callees[n]))
		for c := range cg.Callees[n] {
			callees = append(callees, c)
		}
		sort.Strings(callees)
		fmt.Fprintf(&sb, "%s -> %s\n", n, strings.Join(callees, " "))
	}
	return sb.String()
}
