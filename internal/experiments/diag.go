package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"falseshare/internal/sim/attr"
	"falseshare/internal/transform"
)

// DiagCell records one experiment cell's miss attribution: which
// objects suffered which misses, plus the restructuring decisions the
// cell's program was built with (C versions only). Paired N/C cells
// are the raw material for RenderDiag's before/after deltas.
type DiagCell struct {
	// Key is the experiment cell, e.g. "fig3/maxflow/C/b128".
	Key     string  `json:"key"`
	Program string  `json:"program"`
	Version Version `json:"version"`
	Block   int64   `json:"block"`
	Procs   int     `json:"procs"`
	// Applied are the rendered decisions behind the cell's program;
	// AppliedTargets the object names each decision touches, index-
	// aligned with Applied.
	Applied        []string     `json:"applied,omitempty"`
	AppliedTargets [][]string   `json:"applied_targets,omitempty"`
	Report         *attr.Report `json:"report,omitempty"`
}

// recordDiag appends one attribution report to the cell's event
// collector.
func recordDiag(ctx context.Context, c DiagCell) {
	if col := cellEvents(ctx); col != nil {
		col.Diag = append(col.Diag, c)
	}
}

func decisionStrings(ds []*transform.Decision) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.String())
	}
	return out
}

func decisionTargets(ds []*transform.Decision) [][]string {
	var out [][]string
	for _, d := range ds {
		out = append(out, d.Targets())
	}
	return out
}

// DiagDelta is one row of the aggregate diagnosis: the false-sharing
// misses of the objects one decision touches, before (N) and after
// (C) the transformation.
type DiagDelta struct {
	Section  string `json:"section"` // "fig3" or "table2"
	Program  string `json:"program"`
	Block    int64  `json:"block"`
	Decision string `json:"decision"` // or "(residual)" / "(total)"
	Objects  string `json:"objects"`  // matched object names
	Before   int64  `json:"fs_before"`
	After    int64  `json:"fs_after"`
}

// Delta returns eliminated false-sharing misses (positive: improved).
func (d DiagDelta) Delta() int64 { return d.Before - d.After }

// DiagDeltas pairs the recorded N and C cells per (section, program,
// block) and computes per-decision false-sharing deltas. Rows sort by
// section, program, block, then decision order.
func DiagDeltas(cells []DiagCell) []DiagDelta {
	type pk struct {
		section, program string
		block            int64
	}
	type pair struct {
		n, c *DiagCell
	}
	pairs := map[pk]*pair{}
	var order []pk
	for i := range cells {
		c := &cells[i]
		section := c.Key
		if j := strings.IndexByte(section, '/'); j >= 0 {
			section = section[:j]
		}
		k := pk{section, c.Program, c.Block}
		p := pairs[k]
		if p == nil {
			p = &pair{}
			pairs[k] = p
			order = append(order, k)
		}
		switch c.Version {
		case VersionN:
			p.n = c
		case VersionC:
			p.c = c
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.section != b.section {
			return a.section < b.section
		}
		if a.program != b.program {
			return a.program < b.program
		}
		return a.block < b.block
	})
	var out []DiagDelta
	for _, k := range order {
		p := pairs[k]
		if p.n == nil || p.c == nil || p.n.Report == nil || p.c.Report == nil {
			continue
		}
		out = append(out, pairDeltas(k.section, k.program, k.block, p.n.Report, p.c.Report, p.c.Applied, p.c.AppliedTargets)...)
	}
	return out
}

// pairDeltas attributes one N/C report pair to the applied decisions:
// each decision claims the false-sharing misses of the objects it
// targets (by name, by owning pointer global, or — for indirection —
// by element struct); whatever no decision claims lands in a
// residual row, and a total row closes the cell.
func pairDeltas(section, program string, block int64, before, after *attr.Report, applied []string, targets [][]string) []DiagDelta {
	var out []DiagDelta
	claimedB := map[string]bool{}
	claimedA := map[string]bool{}
	for i, dec := range applied {
		var tg []string
		if i < len(targets) {
			tg = targets[i]
		}
		bObjs, bSum := claimObjects(before, tg, claimedB)
		aObjs, aSum := claimObjects(after, tg, claimedA)
		names := bObjs
		if len(names) == 0 {
			names = aObjs
		}
		out = append(out, DiagDelta{
			Section: section, Program: program, Block: block,
			Decision: dec, Objects: strings.Join(names, ","),
			Before: bSum, After: aSum,
		})
	}
	var resB, resA int64
	var resObjs []string
	for _, o := range before.Objects {
		if !claimedB[o.Object] && o.FalseShare > 0 {
			resB += o.FalseShare
			resObjs = append(resObjs, o.Object)
		}
	}
	for _, o := range after.Objects {
		if !claimedA[o.Object] && o.FalseShare > 0 {
			resA += o.FalseShare
		}
	}
	if resB > 0 || resA > 0 {
		out = append(out, DiagDelta{
			Section: section, Program: program, Block: block,
			Decision: "(residual)", Objects: strings.Join(resObjs, ","),
			Before: resB, After: resA,
		})
	}
	out = append(out, DiagDelta{
		Section: section, Program: program, Block: block,
		Decision: "(total)",
		Before:   before.FalseShare, After: after.FalseShare,
	})
	return out
}

// claimObjects sums the false-sharing misses of the report objects a
// decision's targets cover, marking them claimed. A target matches an
// object by exact name, or — "Struct.field" targets — by the object's
// element struct.
func claimObjects(r *attr.Report, targets []string, claimed map[string]bool) ([]string, int64) {
	var names []string
	var sum int64
	for _, o := range r.Objects {
		if claimed[o.Object] || !matchTarget(&o, targets) {
			continue
		}
		claimed[o.Object] = true
		if o.FalseShare > 0 || o.TrueShare > 0 {
			names = append(names, o.Object)
		}
		sum += o.FalseShare
	}
	return names, sum
}

func matchTarget(o *attr.ObjectStats, targets []string) bool {
	for _, t := range targets {
		if t == o.Object {
			return true
		}
		if i := strings.IndexByte(t, '.'); i > 0 && o.Struct != "" && t[:i] == o.Struct {
			return true
		}
	}
	return false
}

// RenderDiag formats the aggregate diagnosis. A decision whose delta
// summed across a program's block sizes is negative — the
// transformation added false sharing net of all blocks — carries a
// REGRESSION marker on its rows, which CI greps for. A single-block
// negative delta is not flagged: packing density legitimately shifts
// with block size (indirection shrinks records, so at small blocks
// two now fit where one did), and the paper's own Table 2 averages
// reductions over the block range for the same reason.
func RenderDiag(cells []DiagCell) string {
	deltas := DiagDeltas(cells)
	var sb strings.Builder
	sb.WriteString("Diagnosis: false-sharing misses by applied decision (before=N after=C)\n")
	if len(deltas) == 0 {
		sb.WriteString("  (no paired N/C attribution cells recorded)\n")
		return sb.String()
	}
	type dk struct{ section, program, decision string }
	net := map[dk]int64{}
	for _, d := range deltas {
		net[dk{d.Section, d.Program, d.Decision}] += d.Delta()
	}
	fmt.Fprintf(&sb, "%-7s %-11s %6s %10s %9s %9s  %s\n",
		"section", "program", "block", "fs-before", "fs-after", "delta", "decision [objects]")
	for _, d := range deltas {
		mark := ""
		if net[dk{d.Section, d.Program, d.Decision}] < 0 && d.Decision != "(residual)" && d.Decision != "(total)" {
			mark = "  REGRESSION"
		}
		obj := ""
		if d.Objects != "" {
			obj = " [" + d.Objects + "]"
		}
		fmt.Fprintf(&sb, "%-7s %-11s %6d %10d %9d %9d  %s%s%s\n",
			d.Section, d.Program, d.Block, d.Before, d.After, d.Delta(), d.Decision, obj, mark)
	}
	return sb.String()
}

// RenderDiagPair renders the per-decision deltas of one explicit
// before/after report pair — fsc -diag uses it on its single program.
func RenderDiagPair(program string, block int64, before, after *attr.Report, applied []*transform.Decision) string {
	deltas := pairDeltas("diag", program, block, before, after,
		decisionStrings(applied), decisionTargets(applied))
	var sb strings.Builder
	sb.WriteString("false-sharing delta by decision (before=original after=transformed)\n")
	fmt.Fprintf(&sb, "%10s %9s %9s  %s\n", "fs-before", "fs-after", "delta", "decision [objects]")
	for _, d := range deltas {
		obj := ""
		if d.Objects != "" {
			obj = " [" + d.Objects + "]"
		}
		fmt.Fprintf(&sb, "%10d %9d %9d  %s%s\n", d.Before, d.After, d.Delta(), d.Decision, obj)
	}
	return sb.String()
}
