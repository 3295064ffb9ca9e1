// Package verify implements translation validation for the
// restructurer: it runs the original and the transformed program on
// the deterministic VM (at a small process count, under a step
// budget) and compares the final observable shared state through the
// address remapping the applied transformation decisions induce.
//
// The comparison is per object: every shared global of the ORIGINAL
// program gets a Verdict, locating its cells on the transformed side
// via the decision that covers it — identity for pad & align and
// locks (same name, different strides), [i][j]->[j][i] for
// transposes, [e] -> [e%P][e/P] (cyclic) or [e/C][e%C] (block) for
// reshapes, a[e] -> gtv[e].a for grouped vectors, and a pointer
// dereference for indirected heap fields. Heap state is compared one
// level deep through shared pointer globals, using the VM's
// allocation tables for element counts and (padded) strides.
//
// Pointer-valued cells are skipped — addresses legitimately differ
// between layouts. Doubles compare under a small relative tolerance,
// since the transformed program may reach a lock in a different
// deterministic order and reassociate floating-point reductions.
package verify

import (
	"context"
	"fmt"
	"math"
	"strings"

	"falseshare/internal/lang/ast"
	"falseshare/internal/lang/types"
	"falseshare/internal/layout"
	"falseshare/internal/transform"
	"falseshare/internal/vm"
)

// Side is one program version: a checked file plus its layout.
type Side struct {
	File   *ast.File
	Info   *types.Info
	Layout *layout.Layout
}

// Options configure a validation run.
type Options struct {
	// Nprocs is the process count to execute both sides at. Zero
	// means min(DefaultNprocs, layout nprocs). Running below the
	// layout's configured count is sound: the layout only sizes
	// arrays, and cells no process writes stay zero on both sides.
	Nprocs int
	// StepBudget bounds each side's per-process instruction count.
	// Zero means DefaultStepBudget. An original-side budget overrun
	// makes the run inconclusive (Report.Skipped), not a failure.
	StepBudget int64
	// Tolerance is the relative tolerance for double comparisons.
	// Zero means DefaultTolerance.
	Tolerance float64
}

// Defaults for Options zero values.
const (
	DefaultNprocs     = 4
	DefaultStepBudget = int64(50e6)
	DefaultTolerance  = 1e-6
)

// Divergence pinpoints the first mismatching cell of an object.
type Divergence struct {
	Cell      string // e.g. "hist[3]" or "nodes[2].excess"
	OrigAddr  int64
	TransAddr int64
	Orig      string // rendered original-side value
	Trans     string // rendered transformed-side value
}

func (d *Divergence) String() string {
	return fmt.Sprintf("%s: orig@%#x=%s trans@%#x=%s", d.Cell, d.OrigAddr, d.Orig, d.TransAddr, d.Trans)
}

// Verdict is the comparison result for one original-program object.
type Verdict struct {
	Object  string
	OK      bool
	Cells   int    // scalar cells compared
	Skipped int    // pointer-valued cells not compared
	Reason  string // why the verdict failed (First may add detail)
	First   *Divergence
}

// Report is the outcome of one translation-validation run.
type Report struct {
	// Nprocs and StepBudget echo the effective run parameters.
	Nprocs     int
	StepBudget int64
	// Skipped is set when verification was inconclusive: the ORIGINAL
	// program failed to run (step budget, VM error), so the transform
	// cannot be blamed. SkipReason explains.
	Skipped    bool
	SkipReason string
	// TransErr records a transformed-side compile or run failure —
	// a whole-program divergence not attributable to one object.
	TransErr string
	// OK is true when the run was conclusive and every object passed.
	OK      bool
	Objects []Verdict
}

// Failing returns the objects whose verdicts failed.
func (r *Report) Failing() []Verdict {
	var out []Verdict
	for _, v := range r.Objects {
		if !v.OK {
			out = append(out, v)
		}
	}
	return out
}

// String renders a compact human-readable report.
func (r *Report) String() string {
	var sb strings.Builder
	switch {
	case r.Skipped:
		fmt.Fprintf(&sb, "verify: skipped (%s)\n", r.SkipReason)
		return sb.String()
	case r.TransErr != "":
		fmt.Fprintf(&sb, "verify: FAIL (transformed program: %s)\n", r.TransErr)
	case r.OK:
		fmt.Fprintf(&sb, "verify: ok (%d objects, nprocs=%d)\n", len(r.Objects), r.Nprocs)
	default:
		fmt.Fprintf(&sb, "verify: FAIL (%d/%d objects diverge)\n", len(r.Failing()), len(r.Objects))
	}
	for _, v := range r.Objects {
		mark := "ok"
		if !v.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(&sb, "  %-4s %s (%d cells, %d skipped)", mark, v.Object, v.Cells, v.Skipped)
		if v.Reason != "" {
			fmt.Fprintf(&sb, " — %s", v.Reason)
		}
		if v.First != nil {
			fmt.Fprintf(&sb, " — %s", v.First)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Run is RunCtx without cancellation.
func Run(orig, trans Side, applied []*transform.Decision, opts Options) (*Report, error) {
	return RunCtx(context.Background(), orig, trans, applied, opts)
}

// RunCtx validates a transformation by differential execution. applied
// are the transformation decisions that were actually applied (they
// define the address remapping). Both VM runs poll ctx and record
// their spans on it. The returned error covers misuse and
// cancellation: a run that stops because ctx is done returns ctx's
// error, never a report. Other execution failures land in the Report.
func RunCtx(ctx context.Context, orig, trans Side, applied []*transform.Decision, opts Options) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if orig.File == nil || orig.Info == nil || orig.Layout == nil ||
		trans.File == nil || trans.Info == nil || trans.Layout == nil {
		return nil, fmt.Errorf("verify: both sides need file, info and layout")
	}
	nprocs := opts.Nprocs
	if nprocs <= 0 {
		nprocs = DefaultNprocs
		if ln := int(orig.Layout.Nprocs); ln > 0 && ln < nprocs {
			nprocs = ln
		}
	}
	budget := opts.StepBudget
	if budget <= 0 {
		budget = DefaultStepBudget
	}
	tol := opts.Tolerance
	if tol <= 0 {
		tol = DefaultTolerance
	}
	rep := &Report{Nprocs: nprocs, StepBudget: budget}

	om, err := execute(ctx, orig, nprocs, budget)
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	if err != nil {
		// The original program itself does not run to completion at
		// this configuration — inconclusive, not the transform's fault.
		rep.Skipped = true
		rep.SkipReason = fmt.Sprintf("original program: %v", err)
		return rep, nil
	}
	tm, err := execute(ctx, trans, nprocs, budget)
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	if err != nil {
		rep.TransErr = err.Error()
		return rep, nil
	}

	c := &comparer{orig: orig, trans: trans, om: om, tm: tm, tol: tol}
	c.indirected(applied)
	for _, sym := range orig.Info.SharedGlobals() {
		rep.Objects = append(rep.Objects, c.compareObject(sym, applied))
	}
	rep.OK = true
	for _, v := range rep.Objects {
		if !v.OK {
			rep.OK = false
		}
	}
	return rep, nil
}

// execute compiles and runs one side, returning the finished machine.
func execute(ctx context.Context, s Side, nprocs int, budget int64) (*vm.Machine, error) {
	prog, err := vm.Compile(s.File, s.Info, s.Layout, nprocs)
	if err != nil {
		return nil, fmt.Errorf("compile: %v", err)
	}
	m := vm.New(prog)
	m.SetContext(ctx)
	m.MaxInstrs = budget
	if err := m.Run(nil); err != nil {
		return nil, err
	}
	return m, nil
}

// comparer holds the state of one report's memory walk.
type comparer struct {
	orig, trans Side
	om, tm      *vm.Machine
	tol         float64
	// indirect maps "Struct.field" to true for indirected heap fields
	// (scalar on the original side, pointer-to-scalar on the
	// transformed side).
	indirect map[string]bool
}

func (c *comparer) indirected(applied []*transform.Decision) {
	c.indirect = map[string]bool{}
	for _, d := range applied {
		if d.Kind != transform.KindIndirection {
			continue
		}
		for _, f := range d.Fields {
			c.indirect[d.Struct+"."+f] = true
		}
	}
}

// decisionFor finds the applied decision that remaps a global's
// subscripts, if any. Padding-only decisions keep the identity map.
func decisionFor(name string, applied []*transform.Decision) *transform.Decision {
	for _, d := range applied {
		if d.Kind != transform.KindGroupTranspose {
			continue
		}
		switch d.Shape {
		case transform.ShapeGroup, transform.ShapeTranspose,
			transform.ShapeCyclic, transform.ShapeBlock:
			for _, a := range d.Arrays {
				if a == name {
					return d
				}
			}
		}
	}
	return nil
}

// compareObject builds the verdict for one original-side global.
func (c *comparer) compareObject(sym *types.Symbol, applied []*transform.Decision) Verdict {
	v := Verdict{Object: sym.Name, OK: true}
	ovl := c.orig.Layout.Var(sym.Name)
	if ovl == nil {
		v.OK, v.Reason = false, "no original layout"
		return v
	}

	if sym.Type.Kind == types.Pointer {
		c.compareHeap(&v, sym, ovl)
		return v
	}

	d := decisionFor(sym.Name, applied)
	var tvl *layout.VarLayout
	if d != nil && d.Shape == transform.ShapeGroup && len(d.HeapVia) == 0 {
		tvl = c.trans.Layout.Var(d.GroupVar)
	} else {
		if d != nil && (d.Shape == transform.ShapeGroup) {
			d = nil // heap-side grouping pads only; identity map
		}
		tvl = c.trans.Layout.Var(sym.Name)
	}
	if tvl == nil {
		v.OK, v.Reason = false, "object missing from transformed layout"
		return v
	}

	elem := types.ElemType(sym.Type)
	dims := ovl.Dims
	idx := make([]int64, len(dims))
	var walk func(k int) bool
	walk = func(k int) bool {
		if k == len(dims) {
			oaddr := ovl.Address(idx)
			taddr, err := c.transAddr(tvl, d, sym.Name, idx)
			if err != nil {
				v.OK, v.Reason = false, err.Error()
				return false
			}
			name := cellName(sym.Name, idx)
			if elem.Kind == types.StructK {
				return c.compareStruct(&v, elem.Struct.Name, name, oaddr, taddr, false)
			}
			if elem.Kind == types.Pointer {
				return c.comparePtrCell(&v, elem, name, oaddr, taddr)
			}
			return c.compareScalar(&v, elem, name, oaddr, taddr, false)
		}
		for idx[k] = 0; idx[k] < dims[k]; idx[k]++ {
			if !walk(k + 1) {
				return false
			}
		}
		return true
	}
	walk(0)
	return v
}

// transAddr maps an original-side element index to the transformed
// address, per the covering decision. origName selects the record
// field for grouped vectors (gtv[e].origName).
func (c *comparer) transAddr(tvl *layout.VarLayout, d *transform.Decision, origName string, idx []int64) (int64, error) {
	if d == nil {
		return tvl.Address(idx), nil
	}
	switch d.Shape {
	case transform.ShapeTranspose:
		if len(idx) != 2 {
			return 0, fmt.Errorf("transpose of rank-%d index", len(idx))
		}
		return tvl.Address([]int64{idx[1], idx[0]}), nil
	case transform.ShapeCyclic:
		if len(idx) != 1 || d.Period <= 0 {
			return 0, fmt.Errorf("bad cyclic reshape map")
		}
		return tvl.Address([]int64{idx[0] % d.Period, idx[0] / d.Period}), nil
	case transform.ShapeBlock:
		if len(idx) != 1 || d.Period <= 0 {
			return 0, fmt.Errorf("bad block reshape map")
		}
		return tvl.Address([]int64{idx[0] / d.Period, idx[0] % d.Period}), nil
	case transform.ShapeGroup:
		if len(idx) != 1 {
			return 0, fmt.Errorf("group of rank-%d index", len(idx))
		}
		// gtv[e].origName — grouped vectors have scalar elements, so
		// the record field named after the vector holds the cell.
		sl := c.trans.Layout.Struct(d.GroupStruct)
		si := c.trans.Info.Structs[d.GroupStruct]
		if sl == nil || si == nil {
			return 0, fmt.Errorf("group struct %q missing", d.GroupStruct)
		}
		f := si.Field(origName)
		if f == nil {
			return 0, fmt.Errorf("group field %q missing", origName)
		}
		return tvl.Address(idx) + sl.Offsets[f.Index], nil
	}
	return tvl.Address(idx), nil
}

// compareStruct walks a struct instance cell by cell. base addresses
// are the instance starts on each side; heap selects indirection
// handling (indirected fields exist on heap structs only). Returns
// false to stop the object walk after the first divergence.
func (c *comparer) compareStruct(v *Verdict, structName, name string, obase, tbase int64, heap bool) bool {
	osi := c.orig.Info.Structs[structName]
	tsi := c.trans.Info.Structs[structName]
	osl := c.orig.Layout.Struct(structName)
	tsl := c.trans.Layout.Struct(structName)
	if osi == nil || tsi == nil || osl == nil || tsl == nil {
		v.OK, v.Reason = false, fmt.Sprintf("struct %q missing on one side", structName)
		return false
	}
	for _, of := range osi.Fields {
		tf := tsi.Field(of.Name)
		if tf == nil {
			v.OK, v.Reason = false, fmt.Sprintf("field %s.%s missing on transformed side", structName, of.Name)
			return false
		}
		oaddr := obase + osl.Offsets[of.Index]
		taddr := tbase + tsl.Offsets[tf.Index]
		fname := name + "." + of.Name
		indirect := heap && c.indirect[structName+"."+of.Name]
		switch {
		case of.Type.Kind == types.StructK:
			if !c.compareStruct(v, of.Type.Struct.Name, fname, oaddr, taddr, heap) {
				return false
			}
		case of.Type.Kind == types.Array:
			if !c.compareFieldArray(v, of.Type, fname, oaddr, taddr, heap) {
				return false
			}
		default:
			if !c.compareScalar2(v, of.Type, fname, oaddr, taddr, indirect) {
				return false
			}
		}
	}
	return true
}

// compareFieldArray walks an array-typed struct field (contiguous on
// both sides; strides are the element sizes).
func (c *comparer) compareFieldArray(v *Verdict, t *types.Type, name string, obase, tbase int64, heap bool) bool {
	dims, ok := types.ArrayDims(t, c.orig.Layout.Nprocs)
	if !ok {
		v.OK, v.Reason = false, fmt.Sprintf("%s: non-constant field extent", name)
		return false
	}
	elem := types.ElemType(t)
	osz, err1 := c.orig.Layout.SizeOf(elem)
	tsz, err2 := c.trans.Layout.SizeOf(elem)
	if err1 != nil || err2 != nil {
		v.OK, v.Reason = false, fmt.Sprintf("%s: unsizable element", name)
		return false
	}
	n := int64(1)
	for _, d := range dims {
		n *= d
	}
	for i := int64(0); i < n; i++ {
		fname := fmt.Sprintf("%s[%d]", name, i)
		oaddr := obase + i*osz
		taddr := tbase + i*tsz
		if elem.Kind == types.StructK {
			if !c.compareStruct(v, elem.Struct.Name, fname, oaddr, taddr, heap) {
				return false
			}
		} else if !c.compareScalar(v, elem, fname, oaddr, taddr, false) {
			return false
		}
	}
	return true
}

// comparePtrCell follows one pointer-valued array cell (e.g.
// heads[3]) into the instance it refers to and compares that struct
// one level deep. Non-struct pointees and pointers the VM cannot
// bound-check are skipped — the addresses themselves legitimately
// differ between the two layouts.
func (c *comparer) comparePtrCell(v *Verdict, t *types.Type, name string, oaddr, taddr int64) bool {
	optr := c.om.ReadPtr(oaddr)
	tptr := c.tm.ReadPtr(taddr)
	if optr == 0 && tptr == 0 {
		v.Skipped++
		return true
	}
	if (optr == 0) != (tptr == 0) {
		v.OK = false
		v.First = &Divergence{
			Cell: name, OrigAddr: oaddr, TransAddr: taddr,
			Orig: fmt.Sprintf("%#x", optr), Trans: fmt.Sprintf("%#x", tptr),
		}
		v.Reason = "allocation present on one side only"
		return false
	}
	pointee := t.Elem
	if pointee == nil || pointee.Kind != types.StructK ||
		!inBounds(c.om, optr) || !inBounds(c.tm, tptr) {
		v.Skipped++
		return true
	}
	return c.compareStruct(v, pointee.Struct.Name, name+"->", optr, tptr, true)
}

// inBounds reports whether addr is a readable machine address; a
// corrupted transformation could leave garbage in a pointer cell, and
// the oracle must report that, not fault on it.
func inBounds(m *vm.Machine, addr int64) bool {
	return addr > 0 && addr < m.Size()
}

// compareHeap compares the allocation a shared pointer global refers
// to, one level deep.
func (c *comparer) compareHeap(v *Verdict, sym *types.Symbol, ovl *layout.VarLayout) {
	tvl := c.trans.Layout.Var(sym.Name)
	if tvl == nil {
		v.OK, v.Reason = false, "pointer global missing from transformed layout"
		return
	}
	optr := c.om.ReadPtr(ovl.Base)
	tptr := c.tm.ReadPtr(tvl.Base)
	if optr == 0 && tptr == 0 {
		v.Skipped++
		return
	}
	if (optr == 0) != (tptr == 0) {
		v.OK = false
		v.First = &Divergence{
			Cell: sym.Name, OrigAddr: ovl.Base, TransAddr: tvl.Base,
			Orig: fmt.Sprintf("%#x", optr), Trans: fmt.Sprintf("%#x", tptr),
		}
		v.Reason = "allocation present on one side only"
		return
	}
	ostart, oend, ostride, ook := c.om.AllocSpan(optr)
	tstart, tend, tstride, tok := c.tm.AllocSpan(tptr)
	if !ook || !tok {
		// Pointer into another global or arena — not a heap array we
		// can enumerate; skip (addresses differ legitimately).
		v.Skipped++
		return
	}
	on := (oend - ostart) / ostride
	tn := (tend - tstart) / tstride
	if on != tn {
		v.OK = false
		v.Reason = fmt.Sprintf("allocation has %d elements vs %d", on, tn)
		return
	}
	elem := sym.Type.Elem
	for i := int64(0); i < on; i++ {
		name := fmt.Sprintf("%s[%d]", sym.Name, i)
		oaddr := optr + i*ostride
		taddr := tptr + i*tstride
		if elem.Kind == types.StructK {
			if !c.compareStruct(v, elem.Struct.Name, name, oaddr, taddr, true) {
				return
			}
		} else if !c.compareScalar(v, elem, name, oaddr, taddr, false) {
			return
		}
	}
}

// compareScalar compares one non-indirected scalar cell.
func (c *comparer) compareScalar(v *Verdict, t *types.Type, name string, oaddr, taddr int64, indirect bool) bool {
	return c.compareScalar2(v, t, name, oaddr, taddr, indirect)
}

// compareScalar2 compares one scalar cell; when indirect is set the
// transformed side holds a pointer to the value (indirection) and is
// dereferenced first.
func (c *comparer) compareScalar2(v *Verdict, t *types.Type, name string, oaddr, taddr int64, indirect bool) bool {
	if t.Kind == types.Pointer {
		v.Skipped++
		return true
	}
	if indirect {
		p := c.tm.ReadPtr(taddr)
		if p == 0 {
			v.OK = false
			v.First = &Divergence{Cell: name, OrigAddr: oaddr, TransAddr: taddr,
				Orig: c.render(c.om, t, oaddr), Trans: "nil indirection"}
			return false
		}
		taddr = p
	}
	v.Cells++
	equal := false
	switch t.Kind {
	case types.Double:
		a, b := c.om.ReadDouble(oaddr), c.tm.ReadDouble(taddr)
		equal = a == b || math.Abs(a-b) <= c.tol*math.Max(math.Abs(a), math.Abs(b))
	default: // Int, LockT
		equal = c.om.ReadInt(oaddr) == c.tm.ReadInt(taddr)
	}
	if equal {
		return true
	}
	v.OK = false
	v.First = &Divergence{
		Cell: name, OrigAddr: oaddr, TransAddr: taddr,
		Orig: c.render(c.om, t, oaddr), Trans: c.render(c.tm, t, taddr),
	}
	return false
}

func (c *comparer) render(m *vm.Machine, t *types.Type, addr int64) string {
	if t.Kind == types.Double {
		return fmt.Sprintf("%g", m.ReadDouble(addr))
	}
	return fmt.Sprintf("%d", m.ReadInt(addr))
}

func cellName(base string, idx []int64) string {
	var sb strings.Builder
	sb.WriteString(base)
	for _, i := range idx {
		fmt.Fprintf(&sb, "[%d]", i)
	}
	return sb.String()
}
