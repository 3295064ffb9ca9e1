package types

import (
	"fmt"

	"falseshare/internal/lang/ast"
	"falseshare/internal/lang/token"
)

// Error is a semantic error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList collects semantic errors.
type ErrorList []*Error

func (l ErrorList) Error() string {
	switch len(l) {
	case 0:
		return "no errors"
	case 1:
		return l[0].Error()
	}
	return fmt.Sprintf("%s (and %d more errors)", l[0], len(l)-1)
}

// Check type-checks the file and returns the semantic info.
func Check(f *ast.File) (*Info, error) {
	// Size Types and Uses once: growing the interface-keyed Types map
	// rehashes every entry.
	var exprs, idents int
	ast.Walk(f, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.Ident:
			idents++
			exprs++
		case ast.Expr:
			exprs++
		}
		return true
	})
	c := &checker{
		info: &Info{
			File:       f,
			Structs:    map[string]*StructInfo{},
			Globals:    map[string]*Symbol{},
			Funcs:      map[string]*FuncInfo{},
			Types:      make(map[ast.Expr]*Type, exprs),
			Uses:       make(map[*ast.Ident]*Symbol, idents),
			FieldUses:  map[*ast.FieldExpr]*Field{},
			LocalDecls: map[*ast.VarDecl]*Symbol{},
		},
	}
	c.file(f)
	if len(c.errs) > 0 {
		return c.info, c.errs
	}
	return c.info, nil
}

type checker struct {
	info *Info
	errs ErrorList

	// current function state
	fn     *FuncInfo
	scopes []map[string]*Symbol
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	if len(c.errs) < 50 {
		c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

// resolveType converts a syntactic type to a semantic type.
func (c *checker) resolveType(t *ast.TypeExpr) *Type {
	var base *Type
	if t.Struct {
		si, ok := c.info.Structs[t.Name]
		if !ok {
			c.errorf(t.P, "undefined struct %q", t.Name)
			return IntType
		}
		base = &Type{Kind: StructK, Struct: si}
	} else {
		switch t.Name {
		case "int":
			base = IntType
		case "double":
			base = DoubleType
		case "void":
			base = VoidType
		default:
			c.errorf(t.P, "unknown type %q", t.Name)
			return IntType
		}
	}
	for i := 0; i < t.Stars; i++ {
		if base.Kind == Void {
			c.errorf(t.P, "parc has no void pointers (pointers must have a declared object type)")
			return IntType
		}
		base = PointerTo(base)
	}
	return base
}

// declType wraps a resolved base type in the declaration's array dims,
// outermost first.
func (c *checker) declType(base *Type, dims []ast.Expr) *Type {
	t := base
	for i := len(dims) - 1; i >= 0; i-- {
		c.constDim(dims[i])
		t = ArrayOf(t, dims[i])
	}
	return t
}

// constDim verifies a dimension expression is a constant expression
// over integer literals and nprocs.
func (c *checker) constDim(e ast.Expr) {
	ok := true
	ast.Walk(e, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.IntLit, *ast.NprocsExpr, *ast.BinaryExpr, *ast.UnaryExpr:
			return true
		default:
			ok = false
			return false
		}
	})
	if !ok {
		c.errorf(e.Pos(), "array dimension must be a constant expression over integer literals and nprocs")
	}
}

func (c *checker) file(f *ast.File) {
	// Structs first (no forward references except pointer-to-self,
	// which resolves because we register the struct before its fields).
	for _, sd := range f.Structs {
		if _, dup := c.info.Structs[sd.Name]; dup {
			c.errorf(sd.P, "duplicate struct %q", sd.Name)
			continue
		}
		c.info.Structs[sd.Name] = &StructInfo{Name: sd.Name, Decl: sd}
	}
	for _, sd := range f.Structs {
		si := c.info.Structs[sd.Name]
		if si.Decl != sd {
			continue // duplicate
		}
		for idx, fd := range sd.Fields {
			ft := c.declType(c.resolveType(fd.Type), fd.Dims)
			if ft.Kind == StructK {
				c.errorf(fd.P, "struct fields may not embed structs by value (use a pointer)")
			}
			if ft.Kind == Void {
				c.errorf(fd.P, "field %q has void type", fd.Name)
			}
			if si.Field(fd.Name) != nil {
				c.errorf(fd.P, "duplicate field %q in struct %q", fd.Name, sd.Name)
				continue
			}
			si.Fields = append(si.Fields, &Field{Name: fd.Name, Type: ft, Parent: si, Index: idx})
		}
	}

	// Globals.
	for _, g := range f.Globals {
		if _, dup := c.info.Globals[g.Name]; dup {
			c.errorf(g.P, "duplicate global %q", g.Name)
			continue
		}
		var t *Type
		if g.Storage == ast.Lock {
			t = c.declType(LockType, g.Dims)
		} else {
			base := c.resolveType(g.Type)
			if base.Kind == Void {
				c.errorf(g.P, "variable %q has void type", g.Name)
				base = IntType
			}
			t = c.declType(base, g.Dims)
		}
		c.info.Globals[g.Name] = &Symbol{
			Name: g.Name, Kind: GlobalVar, Storage: g.Storage, Type: t, Decl: g,
		}
	}

	// Function signatures before bodies (mutual recursion is legal).
	for _, fn := range f.Funcs {
		if _, dup := c.info.Funcs[fn.Name]; dup {
			c.errorf(fn.P, "duplicate function %q", fn.Name)
			continue
		}
		fi := &FuncInfo{Name: fn.Name, Decl: fn, Ret: c.resolveType(fn.Ret)}
		for _, p := range fn.Params {
			pt := c.resolveType(p.Type)
			if pt.Kind == Void {
				c.errorf(p.P, "parameter %q has void type", p.Name)
				pt = IntType
			}
			if pt.Kind == StructK {
				c.errorf(p.P, "structs are passed by pointer in parc")
			}
			sym := &Symbol{Name: p.Name, Kind: ParamVar, Storage: ast.Auto, Type: pt, Decl: p, Func: fn.Name, Slot: len(fi.Locals)}
			fi.Params = append(fi.Params, sym)
			fi.Locals = append(fi.Locals, sym)
		}
		c.info.Funcs[fn.Name] = fi
	}

	// Bodies.
	for _, fn := range f.Funcs {
		fi := c.info.Funcs[fn.Name]
		if fi == nil || fi.Decl != fn {
			continue
		}
		c.fn = fi
		c.scopes = []map[string]*Symbol{{}}
		for _, p := range fi.Params {
			c.scopes[0][p.Name] = p
		}
		c.stmt(fn.Body)
		c.fn = nil
		c.scopes = nil
	}

	// The program entry point.
	if mainFi, ok := c.info.Funcs["main"]; !ok {
		c.errorf(token.Pos{Line: 1, Col: 1}, "program must define void main()")
	} else {
		if mainFi.Ret.Kind != Void || len(mainFi.Params) != 0 {
			c.errorf(mainFi.Decl.P, "main must be declared as void main()")
		}
	}
}

func (c *checker) pushScope() { c.scopes = append(c.scopes, map[string]*Symbol{}) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) lookup(name string) *Symbol {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s
		}
	}
	if s, ok := c.info.Globals[name]; ok {
		return s
	}
	return nil
}

func (c *checker) declareLocal(d *ast.VarDecl) *Symbol {
	cur := c.scopes[len(c.scopes)-1]
	if _, dup := cur[d.Name]; dup {
		c.errorf(d.P, "duplicate local %q", d.Name)
	}
	base := c.resolveType(d.Type)
	if base.Kind == Void {
		c.errorf(d.P, "variable %q has void type", d.Name)
		base = IntType
	}
	t := c.declType(base, d.Dims)
	if t.Kind == StructK {
		c.errorf(d.P, "local struct values are not supported; allocate with alloc() and use a pointer")
	}
	sym := &Symbol{Name: d.Name, Kind: LocalVar, Storage: ast.Auto, Type: t, Decl: d, Func: c.fn.Name, Slot: len(c.fn.Locals)}
	c.fn.Locals = append(c.fn.Locals, sym)
	cur[d.Name] = sym
	c.info.LocalDecls[d] = sym
	return sym
}

// ---------------------------------------------------------------------------
// Statements

func (c *checker) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		c.pushScope()
		for _, st := range x.List {
			c.stmt(st)
		}
		c.popScope()
	case *ast.DeclStmt:
		sym := c.declareLocal(x.Decl)
		if x.Init != nil {
			it := c.expr(x.Init)
			c.checkAssignable(x.P, sym.Type, it, x.Init)
		}
	case *ast.AssignStmt:
		lt := c.expr(x.LHS)
		if !c.isLvalue(x.LHS) {
			c.errorf(x.P, "left-hand side of assignment is not an lvalue")
		}
		rt := c.expr(x.RHS)
		c.checkAssignable(x.P, lt, rt, x.RHS)
	case *ast.ExprStmt:
		if _, ok := x.X.(*ast.CallExpr); !ok {
			c.errorf(x.P, "expression statement must be a function call")
		}
		c.expr(x.X)
	case *ast.IfStmt:
		c.condExpr(x.Cond)
		c.stmt(x.Then)
		if x.Else != nil {
			c.stmt(x.Else)
		}
	case *ast.WhileStmt:
		c.condExpr(x.Cond)
		c.stmt(x.Body)
	case *ast.ForStmt:
		c.pushScope()
		if x.Init != nil {
			c.stmt(x.Init)
		}
		if x.Cond != nil {
			c.condExpr(x.Cond)
		}
		if x.Post != nil {
			c.stmt(x.Post)
		}
		c.stmt(x.Body)
		c.popScope()
	case *ast.ReturnStmt:
		if c.fn.Ret.Kind == Void {
			if x.X != nil {
				c.errorf(x.P, "void function %q returns a value", c.fn.Name)
			}
			return
		}
		if x.X == nil {
			c.errorf(x.P, "function %q must return a %s", c.fn.Name, c.fn.Ret)
			return
		}
		rt := c.expr(x.X)
		c.checkAssignable(x.P, c.fn.Ret, rt, x.X)
	case *ast.BarrierStmt:
		// no constraints
	case *ast.AcquireStmt:
		c.lockExpr(x.Lock)
	case *ast.ReleaseStmt:
		c.lockExpr(x.Lock)
	}
}

func (c *checker) condExpr(e ast.Expr) {
	t := c.expr(e)
	if t.Kind != Int {
		c.errorf(e.Pos(), "condition must have int type, found %s", t)
	}
}

func (c *checker) lockExpr(e ast.Expr) {
	t := c.expr(e)
	if t.Kind != LockT {
		c.errorf(e.Pos(), "acquire/release needs a lock, found %s", t)
	}
}

// checkAssignable reports an error when a value of type rt (from expr
// rhs) cannot be assigned to type lt. The only implicit conversion is
// int -> double; the literal 0 is the null pointer.
func (c *checker) checkAssignable(pos token.Pos, lt, rt *Type, rhs ast.Expr) {
	if lt == nil || rt == nil {
		return
	}
	if lt.Equal(rt) {
		if lt.Kind == Array || lt.Kind == StructK {
			c.errorf(pos, "cannot assign aggregate type %s", lt)
		}
		if lt.Kind == LockT {
			c.errorf(pos, "locks may only be used with acquire/release")
		}
		return
	}
	if lt.Kind == Double && rt.Kind == Int {
		return // implicit promotion
	}
	if lt.Kind == Pointer && rt.Kind == Int {
		if lit, ok := rhs.(*ast.IntLit); ok && lit.Value == 0 {
			return // null pointer constant
		}
	}
	c.errorf(pos, "cannot assign %s to %s", rt, lt)
}

func (c *checker) isLvalue(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		sym := c.info.Uses[x]
		return sym != nil && sym.Kind != FuncSym
	case *ast.IndexExpr, *ast.FieldExpr, *ast.DerefExpr:
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Expressions

func (c *checker) expr(e ast.Expr) *Type {
	t := c.exprInner(e)
	c.info.Types[e] = t
	return t
}

func (c *checker) exprInner(e ast.Expr) *Type {
	switch x := e.(type) {
	case *ast.IntLit:
		return IntType
	case *ast.FloatLit:
		return DoubleType
	case *ast.PidExpr, *ast.NprocsExpr:
		return IntType
	case *ast.Ident:
		sym := c.lookup(x.Name)
		if sym == nil {
			c.errorf(x.P, "undefined: %q", x.Name)
			return IntType
		}
		c.info.Uses[x] = sym
		return sym.Type
	case *ast.UnaryExpr:
		t := c.expr(x.X)
		switch x.Op {
		case token.MINUS:
			if t.Kind != Int && t.Kind != Double {
				c.errorf(x.P, "operator - needs a numeric operand, found %s", t)
				return IntType
			}
			return t
		case token.NOT:
			if t.Kind != Int {
				c.errorf(x.P, "operator ! needs an int operand, found %s", t)
			}
			return IntType
		}
		c.errorf(x.P, "invalid unary operator %s", x.Op)
		return IntType
	case *ast.DerefExpr:
		t := c.expr(x.X)
		if t.Kind != Pointer {
			c.errorf(x.P, "cannot dereference non-pointer type %s", t)
			return IntType
		}
		// Paper restriction: indirection through arithmetic expressions
		// is disallowed; the operand must be a plain pointer-valued
		// designator (variable, field, index, or another deref).
		switch x.X.(type) {
		case *ast.Ident, *ast.FieldExpr, *ast.IndexExpr, *ast.DerefExpr:
		default:
			c.errorf(x.P, "indirection through a computed expression is not allowed in parc")
		}
		return t.Elem
	case *ast.BinaryExpr:
		return c.binary(x)
	case *ast.IndexExpr:
		it := c.expr(x.Index)
		if it.Kind != Int {
			c.errorf(x.Index.Pos(), "array index must be int, found %s", it)
		}
		t := c.expr(x.X)
		switch t.Kind {
		case Array:
			return t.Elem
		case Pointer:
			// Indexing a pointer treats it as a dynamically allocated
			// array (the only sanctioned pointer "arithmetic").
			return t.Elem
		default:
			c.errorf(x.P, "cannot index non-array type %s", t)
			return IntType
		}
	case *ast.FieldExpr:
		t := c.expr(x.X)
		if x.Arrow {
			if t.Kind != Pointer || t.Elem.Kind != StructK {
				c.errorf(x.P, "-> needs a pointer to struct, found %s", t)
				return IntType
			}
			t = t.Elem
		}
		if t.Kind != StructK {
			c.errorf(x.P, ". needs a struct, found %s", t)
			return IntType
		}
		f := t.Struct.Field(x.Name)
		if f == nil {
			c.errorf(x.P, "struct %q has no field %q", t.Struct.Name, x.Name)
			return IntType
		}
		c.info.FieldUses[x] = f
		return f.Type
	case *ast.CallExpr:
		fi, ok := c.info.Funcs[x.Name]
		if !ok {
			c.errorf(x.P, "undefined function %q", x.Name)
			for _, a := range x.Args {
				c.expr(a)
			}
			return IntType
		}
		if len(x.Args) != len(fi.Params) {
			c.errorf(x.P, "call to %q has %d arguments, want %d", x.Name, len(x.Args), len(fi.Params))
		}
		for i, a := range x.Args {
			at := c.expr(a)
			if i < len(fi.Params) {
				c.checkAssignable(a.Pos(), fi.Params[i].Type, at, a)
			}
		}
		return fi.Ret
	case *ast.AllocExpr:
		t := c.resolveType(x.Type)
		if t.Kind == Void {
			c.errorf(x.P, "cannot allocate void")
			t = IntType
		}
		if x.Count != nil {
			ct := c.expr(x.Count)
			if ct.Kind != Int {
				c.errorf(x.Count.Pos(), "alloc count must be int, found %s", ct)
			}
		}
		return PointerTo(t)
	}
	c.errorf(e.Pos(), "unhandled expression")
	return IntType
}

func (c *checker) binary(x *ast.BinaryExpr) *Type {
	lt := c.expr(x.X)
	rt := c.expr(x.Y)
	numeric := func(t *Type) bool { return t.Kind == Int || t.Kind == Double }
	switch x.Op {
	case token.PLUS, token.MINUS, token.STAR, token.SLASH:
		if lt.Kind == Pointer || rt.Kind == Pointer {
			c.errorf(x.P, "pointer arithmetic is not allowed in parc")
			return IntType
		}
		if !numeric(lt) || !numeric(rt) {
			c.errorf(x.P, "operator %s needs numeric operands, found %s and %s", x.Op, lt, rt)
			return IntType
		}
		if lt.Kind == Double || rt.Kind == Double {
			return DoubleType
		}
		return IntType
	case token.PERCENT:
		if lt.Kind != Int || rt.Kind != Int {
			c.errorf(x.P, "operator %% needs int operands, found %s and %s", lt, rt)
		}
		return IntType
	case token.EQ, token.NEQ:
		if lt.Kind == Pointer || rt.Kind == Pointer {
			okL := lt.Kind == Pointer || isNullLit(x.X)
			okR := rt.Kind == Pointer || isNullLit(x.Y)
			if !okL || !okR || (lt.Kind == Pointer && rt.Kind == Pointer && !lt.Equal(rt)) {
				c.errorf(x.P, "invalid pointer comparison between %s and %s", lt, rt)
			}
			return IntType
		}
		if !numeric(lt) || !numeric(rt) {
			c.errorf(x.P, "operator %s needs comparable operands, found %s and %s", x.Op, lt, rt)
		}
		return IntType
	case token.LT, token.LE, token.GT, token.GE:
		if !numeric(lt) || !numeric(rt) {
			c.errorf(x.P, "operator %s needs numeric operands, found %s and %s", x.Op, lt, rt)
		}
		return IntType
	case token.LAND, token.LOR:
		if lt.Kind != Int || rt.Kind != Int {
			c.errorf(x.P, "operator %s needs int operands, found %s and %s", x.Op, lt, rt)
		}
		return IntType
	}
	c.errorf(x.P, "invalid binary operator %s", x.Op)
	return IntType
}

func isNullLit(e ast.Expr) bool {
	lit, ok := e.(*ast.IntLit)
	return ok && lit.Value == 0
}
