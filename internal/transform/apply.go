package transform

import (
	"context"
	"fmt"
	"runtime/debug"

	"falseshare/internal/faultinject"
	"falseshare/internal/lang/ast"
	"falseshare/internal/lang/token"
	"falseshare/internal/lang/types"
	"falseshare/internal/layout"
)

// DecisionFailure records one decision whose application failed — an
// error, an injected fault, or a contained panic. The restructurer
// turns failures into per-object degradations (the object keeps its
// identity layout) instead of failing the whole compile.
type DecisionFailure struct {
	Decision *Decision
	Err      error
	Panicked bool
	Stack    []byte // panic stack (Panicked only)
}

func (f *DecisionFailure) Error() string {
	if f.Panicked {
		return fmt.Sprintf("apply %s: panic: %v", f.Decision, f.Err)
	}
	return fmt.Sprintf("apply %s: %v", f.Decision, f.Err)
}

func (f *DecisionFailure) Unwrap() error { return f.Err }

// Outcome is the result of one ApplySafe pass.
type Outcome struct {
	Dirs    *layout.Directives
	Applied []*Decision
	Failed  []*DecisionFailure
}

// ApplySafe executes a transformation plan: it mutates the AST
// (dimension swaps, reshapes, grouping, indirection) and emits layout
// directives (alignment and padding). The caller must re-run the type
// checker on the mutated file.
//
// Decisions whose preconditions fail verification (e.g. an access the
// rewrite cannot cover) are dropped and recorded in plan.Skipped —
// transformations must apply universally or not at all (paper §2).
// Outcome.Applied holds the decisions actually applied.
//
// Each decision runs with fault containment: under recover and its
// transform.apply fault point. A failing decision is recorded in
// Outcome.Failed while the remaining decisions still apply. skip, when non-nil, excludes decisions up
// front (the restructurer's degradation loop passes the already
// degraded set).
//
// CAUTION: a decision that fails mid-rewrite may leave the AST
// partially mutated. When Outcome.Failed is non-empty the caller must
// rebuild from a fresh copy with those decisions excluded rather than
// use the mutated file. Pad and lock kinds never touch file, so a plan
// whose enabled decisions are all of those kinds may share its tree.
// ctx is only consulted by fault points.
func ApplySafe(ctx context.Context, file *ast.File, info *types.Info, plan *Plan, blockSize int64, nprocs int64, skip func(*Decision) bool) *Outcome {
	a := &applier{
		ctx:    ctx,
		file:   file,
		info:   info,
		plan:   plan,
		dirs:   layout.NewDirectives(blockSize),
		nprocs: nprocs,
		block:  blockSize,
	}
	out := &Outcome{Dirs: a.dirs}
	// Order: padding first (pure directives), then grouping/reshaping
	// (declaration + subscript rewrites), then indirection (type +
	// access rewrites + allocation-site injection).
	for _, kind := range []Kind{KindLockPad, KindPadAlign, KindGroupTranspose, KindIndirection} {
		for _, d := range plan.ByKind(kind) {
			if skip != nil && skip(d) {
				continue
			}
			ok, failure := a.applyOne(d)
			if failure != nil {
				out.Failed = append(out.Failed, failure)
				continue
			}
			if ok {
				out.Applied = append(out.Applied, d)
			}
		}
	}
	return out
}

type applier struct {
	ctx    context.Context
	file   *ast.File
	info   *types.Info
	plan   *Plan
	dirs   *layout.Directives
	nprocs int64
	block  int64
	gtSeq  int
}

// applyOne runs a single decision under panic containment and its
// fault point.
func (a *applier) applyOne(d *Decision) (ok bool, failure *DecisionFailure) {
	defer func() {
		if r := recover(); r != nil {
			ok = false
			failure = &DecisionFailure{
				Decision: d,
				Err:      fmt.Errorf("%v", r),
				Panicked: true,
				Stack:    debug.Stack(),
			}
		}
	}()
	if err := faultinject.Fire(a.ctx, "transform.apply", d.TargetKey()); err != nil {
		return false, &DecisionFailure{Decision: d, Err: err}
	}
	ok, err := a.apply(d)
	if err != nil {
		return false, &DecisionFailure{Decision: d, Err: err}
	}
	return ok, nil
}

// corrupted reports whether the transform.corrupt fault point fires
// for this decision: a firing point makes the applier emit a
// deliberately WRONG rewrite (a seeded miscompile) so tests can prove
// the translation validator catches it. Never fires in production —
// the point only exists under an enabled fault set.
func (a *applier) corrupted(d *Decision) bool {
	return faultinject.Fire(a.ctx, "transform.corrupt", d.TargetKey()) != nil
}

func (a *applier) skip(d *Decision, reason string) (bool, error) {
	a.plan.Skipped = append(a.plan.Skipped, fmt.Sprintf("%s: %s", d, reason))
	return false, nil
}

func (a *applier) apply(d *Decision) (bool, error) {
	switch d.Kind {
	case KindLockPad, KindPadAlign:
		for _, g := range d.Globals {
			a.dirs.PadElem[g] = a.block
			a.dirs.AlignVar[g] = a.block
		}
		for _, g := range d.HeapVia {
			a.dirs.PadHeapElem[g] = a.block
		}
		return true, nil
	case KindGroupTranspose:
		return a.applyGT(d)
	case KindIndirection:
		return a.applyIndirection(d)
	}
	return false, fmt.Errorf("transform: unknown decision kind %v", d.Kind)
}

// ---------------------------------------------------------------------------
// Group & transpose

func (a *applier) applyGT(d *Decision) (bool, error) {
	switch d.Shape {
	case ShapeAlignRows:
		name := d.Arrays[0]
		a.dirs.PadRow[name] = a.block
		a.dirs.AlignVar[name] = a.block
		return true, nil

	case ShapeGroup:
		if len(d.HeapVia) > 0 {
			for _, g := range d.HeapVia {
				a.dirs.PadHeapElem[g] = a.block
			}
			return true, nil
		}
		return a.applyGroup(d)

	case ShapeTranspose:
		return a.applyTranspose(d)

	case ShapeCyclic, ShapeBlock:
		return a.applyReshape(d)
	}
	return false, fmt.Errorf("transform: unknown G&T shape %v", d.Shape)
}

// applyGroup gathers 1-D vectors into an array of per-process records.
func (a *applier) applyGroup(d *Decision) (bool, error) {
	// Verify every use of every array is a full rank-1 subscript.
	var decls []*ast.VarDecl
	for _, name := range d.Arrays {
		g := a.file.Global(name)
		sym := a.info.Globals[name]
		if g == nil || sym == nil {
			return a.skip(d, "array declaration not found")
		}
		if !a.fullIndexUsesOnly(sym, 1) {
			return a.skip(d, fmt.Sprintf("array %q has accesses the rewrite cannot cover", name))
		}
		elem := types.ElemType(sym.Type)
		if !elem.IsScalar() {
			return a.skip(d, fmt.Sprintf("array %q has non-scalar elements", name))
		}
		decls = append(decls, g)
	}

	a.gtSeq++
	structName := fmt.Sprintf("GTrec%d", a.gtSeq)
	varName := fmt.Sprintf("gtv%d", a.gtSeq)
	for a.nameTaken(structName) || a.nameTaken(varName) {
		a.gtSeq++
		structName = fmt.Sprintf("GTrec%d", a.gtSeq)
		varName = fmt.Sprintf("gtv%d", a.gtSeq)
	}

	// Build the record: one field per grouped vector.
	sd := &ast.StructDecl{Name: structName}
	for _, g := range decls {
		sd.Fields = append(sd.Fields, &ast.FieldDecl{
			Type: g.Type.Clone(),
			Name: g.Name,
		})
	}
	a.file.Structs = append(a.file.Structs, sd)

	// The grouped array, padded per element so that no two processes'
	// records share a block.
	nv := &ast.VarDecl{
		Storage: ast.Shared,
		Type:    &ast.TypeExpr{Name: structName, Struct: true},
		Name:    varName,
		Dims:    []ast.Expr{ast.CloneExpr(decls[0].Dims[0])},
	}

	// Replace the first grouped declaration with the record array and
	// delete the rest, preserving declaration order.
	var globals []*ast.VarDecl
	replaced := false
	inGroup := func(g *ast.VarDecl) bool {
		for _, od := range decls {
			if od == g {
				return true
			}
		}
		return false
	}
	for _, g := range a.file.Globals {
		if inGroup(g) {
			if !replaced {
				globals = append(globals, nv)
				replaced = true
			}
			continue
		}
		globals = append(globals, g)
	}
	a.file.Globals = globals

	a.dirs.PadElem[varName] = a.block
	a.dirs.AlignVar[varName] = a.block
	d.GroupVar = varName
	d.GroupStruct = structName

	// Rewrite a[e] -> gtv[e].a for every grouped vector.
	targets := map[*types.Symbol]string{}
	for _, name := range d.Arrays {
		targets[a.info.Globals[name]] = name
	}
	corrupt := a.corrupted(d)
	ast.RewriteFile(a.file, func(e ast.Expr) ast.Expr {
		ix, ok := e.(*ast.IndexExpr)
		if !ok {
			return e
		}
		id, ok := ix.X.(*ast.Ident)
		if !ok {
			return e
		}
		fieldName, ok := targets[a.info.Uses[id]]
		if !ok {
			return e
		}
		index := ix.Index
		if corrupt {
			// Seeded miscompile: collapse every grouped access onto
			// record 0, so all processes stomp one slot.
			index = ast.NewInt(0)
		}
		return &ast.FieldExpr{
			P:    ix.P,
			X:    &ast.IndexExpr{P: ix.P, X: ast.NewIdent(varName), Index: index},
			Name: fieldName,
		}
	})
	return true, nil
}

// applyTranspose swaps the two dimensions of a 2-D array.
func (a *applier) applyTranspose(d *Decision) (bool, error) {
	name := d.Arrays[0]
	g := a.file.Global(name)
	sym := a.info.Globals[name]
	if g == nil || sym == nil || len(g.Dims) != 2 {
		return a.skip(d, "not a 2-D array")
	}
	if !a.fullIndexUsesOnly(sym, 2) {
		return a.skip(d, "accesses the transpose cannot cover")
	}
	g.Dims[0], g.Dims[1] = g.Dims[1], g.Dims[0]
	a.dirs.PadRow[name] = a.block
	a.dirs.AlignVar[name] = a.block

	if a.corrupted(d) {
		// Seeded miscompile: the declaration was transposed but the
		// subscripts were not rewritten, so every access lands at the
		// mirrored element.
		return true, nil
	}
	ast.RewriteFile(a.file, func(e ast.Expr) ast.Expr {
		outer, ok := e.(*ast.IndexExpr)
		if !ok {
			return e
		}
		inner, ok := outer.X.(*ast.IndexExpr)
		if !ok {
			return e
		}
		id, ok := inner.X.(*ast.Ident)
		if !ok || a.info.Uses[id] != sym {
			return e
		}
		inner.Index, outer.Index = outer.Index, inner.Index
		return e
	})
	return true, nil
}

// applyReshape turns a 1-D vector into a 2-D array so that each
// process's section becomes a contiguous padded row.
//
//	cyclic period P: a[e]  ->  a[e % P][e / P],  dims [P][ceil(N/P)]
//	block chunk C:   a[e]  ->  a[e / C][e % C],  dims [ceil(N/C)][C]
func (a *applier) applyReshape(d *Decision) (bool, error) {
	name := d.Arrays[0]
	g := a.file.Global(name)
	sym := a.info.Globals[name]
	if g == nil || sym == nil || len(g.Dims) != 1 {
		return a.skip(d, "not a 1-D array")
	}
	if d.Period <= 0 {
		return a.skip(d, "no reshape period")
	}
	if !a.fullIndexUsesOnly(sym, 1) {
		return a.skip(d, "accesses the reshape cannot cover")
	}
	dims, ok := types.ArrayDims(sym.Type, a.nprocs)
	if !ok {
		return a.skip(d, "non-constant extent")
	}
	n := dims[0]
	p := d.Period
	other := (n + p - 1) / p

	if d.Shape == ShapeCyclic {
		g.Dims = []ast.Expr{ast.NewInt(p), ast.NewInt(other)}
	} else {
		g.Dims = []ast.Expr{ast.NewInt(other), ast.NewInt(p)}
	}
	a.dirs.PadRow[name] = a.block
	a.dirs.AlignVar[name] = a.block

	shape := d.Shape
	if a.corrupted(d) {
		// Seeded miscompile: emit the OTHER reshape's subscript mapping
		// (cyclic <-> block), scattering each process's elements.
		if shape == ShapeCyclic {
			shape = ShapeBlock
		} else {
			shape = ShapeCyclic
		}
	}
	ast.RewriteFile(a.file, func(e ast.Expr) ast.Expr {
		ix, ok := e.(*ast.IndexExpr)
		if !ok {
			return e
		}
		id, ok := ix.X.(*ast.Ident)
		if !ok || a.info.Uses[id] != sym {
			return e
		}
		idx := ix.Index
		var first, second ast.Expr
		if shape == ShapeCyclic {
			first = ast.NewBinary(token.PERCENT, idx, ast.NewInt(p))
			second = ast.NewBinary(token.SLASH, ast.CloneExpr(idx), ast.NewInt(p))
		} else {
			first = ast.NewBinary(token.SLASH, idx, ast.NewInt(p))
			second = ast.NewBinary(token.PERCENT, ast.CloneExpr(idx), ast.NewInt(p))
		}
		return &ast.IndexExpr{
			P:     ix.P,
			X:     &ast.IndexExpr{P: ix.P, X: ast.NewIdent(name), Index: first},
			Index: second,
		}
	})
	return true, nil
}

// fullIndexUsesOnly verifies that every use of sym in the program is
// the base of an index chain of exactly the given rank — the condition
// under which subscript rewriting covers all accesses.
func (a *applier) fullIndexUsesOnly(sym *types.Symbol, rank int) bool {
	ok := true
	for _, fn := range a.file.Funcs {
		var check func(e ast.Expr, depth int)
		check = func(e ast.Expr, depth int) {
			switch x := e.(type) {
			case *ast.Ident:
				if a.info.Uses[x] == sym && depth != rank {
					ok = false
				}
			case *ast.IndexExpr:
				check(x.X, depth+1)
				check(x.Index, 0)
			case *ast.FieldExpr:
				check(x.X, 0)
			case *ast.BinaryExpr:
				check(x.X, 0)
				check(x.Y, 0)
			case *ast.UnaryExpr:
				check(x.X, 0)
			case *ast.DerefExpr:
				check(x.X, 0)
			case *ast.CallExpr:
				for _, arg := range x.Args {
					check(arg, 0)
				}
			case *ast.AllocExpr:
				if x.Count != nil {
					check(x.Count, 0)
				}
			}
		}
		ast.Walk(fn.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				check(s.LHS, 0)
				check(s.RHS, 0)
			case *ast.DeclStmt:
				if s.Init != nil {
					check(s.Init, 0)
				}
			case *ast.ExprStmt:
				check(s.X, 0)
			case *ast.ReturnStmt:
				if s.X != nil {
					check(s.X, 0)
				}
			case *ast.IfStmt:
				check(s.Cond, 0)
			case *ast.WhileStmt:
				check(s.Cond, 0)
			case *ast.ForStmt:
				if s.Cond != nil {
					check(s.Cond, 0)
				}
			case *ast.AcquireStmt:
				check(s.Lock, 0)
			case *ast.ReleaseStmt:
				check(s.Lock, 0)
			}
			return true
		})
	}
	return ok
}

func (a *applier) nameTaken(name string) bool {
	if a.file.Global(name) != nil || a.file.Struct(name) != nil || a.file.Func(name) != nil {
		return true
	}
	return false
}
