// Package transform implements the paper's four shared-data
// transformations — group & transpose, indirection, pad & align, and
// lock padding — together with the Section 3.3 heuristics that decide
// which data structures to restructure.
package transform

import (
	"fmt"
	"strings"
)

// Kind enumerates the transformations.
type Kind int

const (
	// KindGroupTranspose groups per-process data and transposes or
	// reshapes arrays so each process's section is contiguous and
	// block-aligned.
	KindGroupTranspose Kind = iota
	// KindIndirection moves per-process fields of dynamically
	// allocated structures into per-process arenas behind pointers.
	KindIndirection
	// KindPadAlign pads write-shared, locality-free data to cache
	// block boundaries.
	KindPadAlign
	// KindLockPad pads lock variables to their own cache blocks.
	KindLockPad
)

func (k Kind) String() string {
	switch k {
	case KindGroupTranspose:
		return "group&transpose"
	case KindIndirection:
		return "indirection"
	case KindPadAlign:
		return "pad&align"
	case KindLockPad:
		return "locks"
	}
	return "transform?"
}

// RewritesTree reports whether applying a decision of this kind
// rewrites the AST. Pad and lock decisions only emit layout
// directives and leave the tree untouched.
func (k Kind) RewritesTree() bool { return k == KindGroupTranspose || k == KindIndirection }

// GTShape describes how group & transpose restructures its target.
type GTShape int

const (
	// ShapeGroup gathers one or more pid-indexed vectors into an array
	// of per-process records padded to the block size (Figure 2a).
	ShapeGroup GTShape = iota
	// ShapeTranspose swaps the dimensions of a 2-D array whose second
	// dimension is pid-partitioned.
	ShapeTranspose
	// ShapeCyclic reshapes a cyclically partitioned vector
	// a[pid + i*P] into a[P][N/P] so each process's elements become a
	// contiguous padded row.
	ShapeCyclic
	// ShapeBlock aligns the contiguous per-process chunks of a
	// block-partitioned vector on block boundaries by reshaping
	// a[pid*C + i] into a[N/C][C] with padded rows.
	ShapeBlock
	// ShapeAlignRows pads and aligns the rows of an already
	// process-major 2-D array (the layout SPLASH2 programmers chose by
	// hand) without changing subscripts.
	ShapeAlignRows
)

func (s GTShape) String() string {
	switch s {
	case ShapeGroup:
		return "group"
	case ShapeTranspose:
		return "transpose"
	case ShapeCyclic:
		return "cyclic-reshape"
	case ShapeBlock:
		return "block-align"
	case ShapeAlignRows:
		return "align-rows"
	}
	return "shape?"
}

// Decision is one planned transformation.
type Decision struct {
	Kind Kind
	// Objects are the summary object keys this decision covers.
	Objects []string
	// Reason explains the heuristic trigger (for reports and tests).
	Reason string

	// Group & transpose parameters.
	Shape GTShape
	// Arrays are the global array names involved (>1 only for
	// ShapeGroup).
	Arrays []string
	// Period is the cyclic period (ShapeCyclic) or chunk size
	// (ShapeBlock) in elements.
	Period int64

	// Indirection parameters.
	Struct string
	Fields []string

	// Pad & align / lock parameters.
	Globals []string // shared globals to pad (locks included)
	HeapVia []string // shared global pointers whose heap elements pad

	// GroupVar and GroupStruct are filled in by Apply for ShapeGroup
	// decisions: the synthesized record array and struct names. The
	// translation validator uses them to remap grouped vectors.
	GroupVar    string
	GroupStruct string
}

// Targets returns the shared global names the decision touches —
// the arrays, padded globals and heap pointers from the plan, plus
// the synthesized group variable once Apply has run. Indirection
// decisions target struct fields, not globals; they contribute
// "Struct.field" keys (callers that need the pointer globals reaching
// that struct resolve them against their own type info).
func (d *Decision) Targets() []string {
	var out []string
	seen := map[string]bool{}
	add := func(names ...string) {
		for _, n := range names {
			if n != "" && !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	add(d.Arrays...)
	add(d.Globals...)
	add(d.HeapVia...)
	add(d.GroupVar)
	for _, f := range d.Fields {
		add(d.Struct + "." + f)
	}
	return out
}

// TargetKey renders the targets as one comma-joined string — the
// detail the transform.apply and transform.corrupt fault points fire
// with, so chaos specs can select a single object by substring.
func (d *Decision) TargetKey() string { return strings.Join(d.Targets(), ",") }

// String renders the decision.
func (d *Decision) String() string {
	switch d.Kind {
	case KindGroupTranspose:
		return fmt.Sprintf("%s(%s: %s) period=%d — %s", d.Kind, d.Shape, strings.Join(d.Arrays, ","), d.Period, d.Reason)
	case KindIndirection:
		return fmt.Sprintf("%s(struct %s: %s) — %s", d.Kind, d.Struct, strings.Join(d.Fields, ","), d.Reason)
	case KindPadAlign:
		return fmt.Sprintf("%s(%s%s) — %s", d.Kind, strings.Join(d.Globals, ","), heapSuffix(d.HeapVia), d.Reason)
	case KindLockPad:
		return fmt.Sprintf("%s(%s) — %s", d.Kind, strings.Join(d.Globals, ","), d.Reason)
	}
	return d.Kind.String()
}

func heapSuffix(hv []string) string {
	if len(hv) == 0 {
		return ""
	}
	return " heap:" + strings.Join(hv, ",")
}

// Plan is the full set of decisions for a program.
type Plan struct {
	Decisions []*Decision
	// Skipped records objects considered but rejected, with reasons —
	// the paper's residual-false-sharing cases show up here.
	Skipped []string
}

// String renders the plan.
func (p *Plan) String() string {
	var sb strings.Builder
	for _, d := range p.Decisions {
		fmt.Fprintf(&sb, "%s\n", d)
	}
	for _, s := range p.Skipped {
		fmt.Fprintf(&sb, "skip: %s\n", s)
	}
	return sb.String()
}

// ByKind returns the decisions of one kind.
func (p *Plan) ByKind(k Kind) []*Decision {
	var out []*Decision
	for _, d := range p.Decisions {
		if d.Kind == k {
			out = append(out, d)
		}
	}
	return out
}
