package ast

// CloneExpr returns a deep copy of an expression tree. Transformations
// use it when the same source expression must appear at several
// rewritten sites.
func CloneExpr(e Expr) Expr { return cloner{}.expr(e) }

// CloneFile returns a deep copy of f: every declaration, statement and
// expression is a new node, and every TypeExpr and slice is copied, so
// the copy can be rewritten in place while f stays as it was. each,
// when non-nil, is called with every expression of f and its copy,
// which lets a caller carry tables keyed by f's nodes over to the copy.
func CloneFile(f *File, each func(orig, clone Expr)) *File {
	c := cloner{each: each}
	out := &File{
		Structs: make([]*StructDecl, len(f.Structs)),
		Globals: make([]*VarDecl, len(f.Globals)),
		Funcs:   make([]*FuncDecl, len(f.Funcs)),
	}
	for i, s := range f.Structs {
		n := *s
		n.Fields = make([]*FieldDecl, len(s.Fields))
		for j, fd := range s.Fields {
			nf := *fd
			nf.Type = cloneType(fd.Type)
			nf.Dims = c.exprs(fd.Dims)
			n.Fields[j] = &nf
		}
		out.Structs[i] = &n
	}
	for i, g := range f.Globals {
		out.Globals[i] = c.varDecl(g)
	}
	for i, fn := range f.Funcs {
		n := *fn
		n.Ret = cloneType(fn.Ret)
		n.Params = make([]*ParamDecl, len(fn.Params))
		for j, p := range fn.Params {
			np := *p
			np.Type = cloneType(p.Type)
			n.Params[j] = &np
		}
		if fn.Body != nil {
			n.Body = c.block(fn.Body)
		}
		out.Funcs[i] = &n
	}
	return out
}

// cloneType is Clone for a type that may be absent (a lock
// declaration has none).
func cloneType(t *TypeExpr) *TypeExpr {
	if t == nil {
		return nil
	}
	return t.Clone()
}

// cloner copies trees node by node, telling each (when set) of every
// expression it copies.
type cloner struct {
	each func(orig, clone Expr)
}

func (c cloner) varDecl(d *VarDecl) *VarDecl {
	n := *d
	n.Type = cloneType(d.Type)
	n.Dims = c.exprs(d.Dims)
	return &n
}

func (c cloner) exprs(es []Expr) []Expr {
	if len(es) == 0 {
		return nil
	}
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = c.expr(e)
	}
	return out
}

func (c cloner) block(b *BlockStmt) *BlockStmt {
	n := *b
	n.List = make([]Stmt, len(b.List))
	for i, s := range b.List {
		n.List[i] = c.stmt(s)
	}
	return &n
}

func (c cloner) stmt(s Stmt) Stmt {
	switch x := s.(type) {
	case nil:
		return nil
	case *BlockStmt:
		return c.block(x)
	case *DeclStmt:
		n := *x
		n.Decl = c.varDecl(x.Decl)
		n.Init = c.expr(x.Init)
		return &n
	case *AssignStmt:
		n := *x
		n.LHS = c.expr(x.LHS)
		n.RHS = c.expr(x.RHS)
		return &n
	case *ExprStmt:
		n := *x
		n.X = c.expr(x.X)
		return &n
	case *IfStmt:
		n := *x
		n.Cond = c.expr(x.Cond)
		n.Then = c.stmt(x.Then)
		n.Else = c.stmt(x.Else)
		return &n
	case *WhileStmt:
		n := *x
		n.Cond = c.expr(x.Cond)
		n.Body = c.stmt(x.Body)
		return &n
	case *ForStmt:
		n := *x
		n.Init = c.stmt(x.Init)
		n.Cond = c.expr(x.Cond)
		n.Post = c.stmt(x.Post)
		n.Body = c.stmt(x.Body)
		return &n
	case *ReturnStmt:
		n := *x
		n.X = c.expr(x.X)
		return &n
	case *BarrierStmt:
		n := *x
		return &n
	case *AcquireStmt:
		n := *x
		n.Lock = c.expr(x.Lock)
		return &n
	case *ReleaseStmt:
		n := *x
		n.Lock = c.expr(x.Lock)
		return &n
	}
	return s
}

func (c cloner) expr(e Expr) Expr {
	var out Expr
	switch x := e.(type) {
	case nil:
		return nil
	case *Ident:
		n := *x
		out = &n
	case *IntLit:
		n := *x
		out = &n
	case *FloatLit:
		n := *x
		out = &n
	case *PidExpr:
		n := *x
		out = &n
	case *NprocsExpr:
		n := *x
		out = &n
	case *BinaryExpr:
		n := *x
		n.X = c.expr(x.X)
		n.Y = c.expr(x.Y)
		out = &n
	case *UnaryExpr:
		n := *x
		n.X = c.expr(x.X)
		out = &n
	case *DerefExpr:
		n := *x
		n.X = c.expr(x.X)
		out = &n
	case *IndexExpr:
		n := *x
		n.X = c.expr(x.X)
		n.Index = c.expr(x.Index)
		out = &n
	case *FieldExpr:
		n := *x
		n.X = c.expr(x.X)
		out = &n
	case *CallExpr:
		n := *x
		n.Args = make([]Expr, len(x.Args))
		for i, a := range x.Args {
			n.Args[i] = c.expr(a)
		}
		out = &n
	case *AllocExpr:
		n := *x
		n.Type = cloneType(x.Type)
		n.Count = c.expr(x.Count)
		out = &n
	default:
		return e
	}
	if c.each != nil {
		c.each(e, out)
	}
	return out
}
