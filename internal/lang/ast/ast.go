// Package ast declares the abstract syntax tree of parc programs.
//
// The tree is deliberately small: parc is the restricted explicitly
// parallel C subset described in Section 2 of the paper. Nodes carry
// source positions for diagnostics; semantic information (types,
// symbols) is kept out of the tree in types.Info so that analyses and
// transformations can rewrite the tree freely.
package ast

import "falseshare/internal/lang/token"

// Node is implemented by all AST nodes.
type Node interface {
	Pos() token.Pos
}

// ---------------------------------------------------------------------------
// Types (syntactic)

// TypeExpr is a syntactic type: a base name plus pointer depth.
// parc types are int, double, void (function results only) and
// struct S, each optionally behind one or more '*'.
type TypeExpr struct {
	P      token.Pos
	Name   string // "int", "double", "void", or a struct name
	Struct bool   // Name refers to a struct
	Stars  int    // pointer depth
}

func (t *TypeExpr) Pos() token.Pos { return t.P }

// String renders the type as source text.
func (t *TypeExpr) String() string {
	s := t.Name
	if t.Struct {
		s = "struct " + s
	}
	for i := 0; i < t.Stars; i++ {
		s += "*"
	}
	return s
}

// Clone returns a deep copy.
func (t *TypeExpr) Clone() *TypeExpr {
	c := *t
	return &c
}

// ---------------------------------------------------------------------------
// Declarations

// StorageClass distinguishes shared, private and lock file-scope data.
type StorageClass int

const (
	// Auto is the storage class of locals and parameters (private).
	Auto StorageClass = iota
	// Shared data lives in the shared address space and is visible to
	// all processes; only shared data can be falsely shared.
	Shared
	// Private file-scope data is replicated per process.
	Private
	// Lock declares a mutual-exclusion lock word.
	Lock
)

func (s StorageClass) String() string {
	switch s {
	case Auto:
		return "auto"
	case Shared:
		return "shared"
	case Private:
		return "private"
	case Lock:
		return "lock"
	}
	return "storage?"
}

// VarDecl declares a variable: file scope (with a storage class) or
// local. Dims holds the constant array dimensions, outermost first.
type VarDecl struct {
	P       token.Pos
	Storage StorageClass
	Type    *TypeExpr // nil for lock declarations
	Name    string
	Dims    []Expr // constant expressions; empty for scalars
}

func (d *VarDecl) Pos() token.Pos { return d.P }

// FieldDecl is a struct member.
type FieldDecl struct {
	P    token.Pos
	Type *TypeExpr
	Name string
	Dims []Expr
}

func (f *FieldDecl) Pos() token.Pos { return f.P }

// StructDecl declares a record type.
type StructDecl struct {
	P      token.Pos
	Name   string
	Fields []*FieldDecl
}

func (d *StructDecl) Pos() token.Pos { return d.P }

// Field returns the field with the given name, or nil.
func (d *StructDecl) Field(name string) *FieldDecl {
	for _, f := range d.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// ParamDecl is a function parameter.
type ParamDecl struct {
	P    token.Pos
	Type *TypeExpr
	Name string
}

func (p *ParamDecl) Pos() token.Pos { return p.P }

// FuncDecl declares a function. parc has no prototypes: all functions
// are defined in one translation unit (the paper restricts separate
// compilation for modules touching transformable shared data).
type FuncDecl struct {
	P      token.Pos
	Ret    *TypeExpr
	Name   string
	Params []*ParamDecl
	Body   *BlockStmt
}

func (d *FuncDecl) Pos() token.Pos { return d.P }

// File is a parsed translation unit.
type File struct {
	Structs []*StructDecl
	Globals []*VarDecl
	Funcs   []*FuncDecl
}

// Pos returns the position of the first declaration in the file.
func (f *File) Pos() token.Pos {
	switch {
	case len(f.Structs) > 0:
		return f.Structs[0].P
	case len(f.Globals) > 0:
		return f.Globals[0].P
	case len(f.Funcs) > 0:
		return f.Funcs[0].P
	}
	return token.Pos{}
}

// Struct returns the struct declaration with the given name, or nil.
func (f *File) Struct(name string) *StructDecl {
	for _, s := range f.Structs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Global returns the file-scope variable with the given name, or nil.
func (f *File) Global(name string) *VarDecl {
	for _, g := range f.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// Func returns the function with the given name, or nil.
func (f *File) Func(name string) *FuncDecl {
	for _, fn := range f.Funcs {
		if fn.Name == name {
			return fn
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Statements

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// BlockStmt is a brace-delimited statement list.
type BlockStmt struct {
	P    token.Pos
	List []Stmt
}

// DeclStmt declares a local variable, optionally initialized.
type DeclStmt struct {
	P    token.Pos
	Decl *VarDecl
	Init Expr // may be nil
}

// AssignStmt stores RHS into the LHS lvalue.
type AssignStmt struct {
	P   token.Pos
	LHS Expr
	RHS Expr
}

// ExprStmt evaluates an expression (a call) for its side effects.
type ExprStmt struct {
	P token.Pos
	X Expr
}

// IfStmt is a conditional with an optional else arm.
type IfStmt struct {
	P    token.Pos
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// WhileStmt loops while Cond is true.
type WhileStmt struct {
	P    token.Pos
	Cond Expr
	Body Stmt
}

// ForStmt is the C-style counted loop.
type ForStmt struct {
	P    token.Pos
	Init Stmt // DeclStmt or AssignStmt; may be nil
	Cond Expr // may be nil (treated as true)
	Post Stmt // AssignStmt; may be nil
	Body Stmt
}

// ReturnStmt returns from the enclosing function.
type ReturnStmt struct {
	P token.Pos
	X Expr // may be nil
}

// BarrierStmt is a global barrier: all processes must arrive before
// any proceeds. Barriers delimit the phases found by non-concurrency
// analysis.
type BarrierStmt struct {
	P token.Pos
}

// AcquireStmt acquires a lock (spin until free).
type AcquireStmt struct {
	P    token.Pos
	Lock Expr // Ident or IndexExpr naming a lock
}

// ReleaseStmt releases a lock.
type ReleaseStmt struct {
	P    token.Pos
	Lock Expr
}

func (s *BlockStmt) Pos() token.Pos   { return s.P }
func (s *DeclStmt) Pos() token.Pos    { return s.P }
func (s *AssignStmt) Pos() token.Pos  { return s.P }
func (s *ExprStmt) Pos() token.Pos    { return s.P }
func (s *IfStmt) Pos() token.Pos      { return s.P }
func (s *WhileStmt) Pos() token.Pos   { return s.P }
func (s *ForStmt) Pos() token.Pos     { return s.P }
func (s *ReturnStmt) Pos() token.Pos  { return s.P }
func (s *BarrierStmt) Pos() token.Pos { return s.P }
func (s *AcquireStmt) Pos() token.Pos { return s.P }
func (s *ReleaseStmt) Pos() token.Pos { return s.P }

func (*BlockStmt) stmtNode()   {}
func (*DeclStmt) stmtNode()    {}
func (*AssignStmt) stmtNode()  {}
func (*ExprStmt) stmtNode()    {}
func (*IfStmt) stmtNode()      {}
func (*WhileStmt) stmtNode()   {}
func (*ForStmt) stmtNode()     {}
func (*ReturnStmt) stmtNode()  {}
func (*BarrierStmt) stmtNode() {}
func (*AcquireStmt) stmtNode() {}
func (*ReleaseStmt) stmtNode() {}

// ---------------------------------------------------------------------------
// Expressions

// Expr is implemented by all expression nodes.
type Expr interface {
	Node
	exprNode()
}

// Ident names a variable, parameter, or function.
type Ident struct {
	P    token.Pos
	Name string
}

// IntLit is an integer literal.
type IntLit struct {
	P     token.Pos
	Value int64
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	P     token.Pos
	Value float64
}

// PidExpr is the built-in process id (0..nprocs-1), the seed PDV.
type PidExpr struct {
	P token.Pos
}

// NprocsExpr is the built-in process count.
type NprocsExpr struct {
	P token.Pos
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	P    token.Pos
	Op   token.Kind
	X, Y Expr
}

// UnaryExpr applies unary - or !.
type UnaryExpr struct {
	P  token.Pos
	Op token.Kind
	X  Expr
}

// DerefExpr dereferences a pointer: *p. Indirection through arithmetic
// expressions is disallowed by the type checker (paper §2).
type DerefExpr struct {
	P token.Pos
	X Expr
}

// IndexExpr subscripts an array: X[Index].
type IndexExpr struct {
	P     token.Pos
	X     Expr
	Index Expr
}

// FieldExpr selects a struct member: X.Name or X->Name.
type FieldExpr struct {
	P     token.Pos
	X     Expr
	Name  string
	Arrow bool // true for ->
}

// CallExpr calls a user-defined function.
type CallExpr struct {
	P    token.Pos
	Name string
	Args []Expr
}

// AllocExpr allocates shared heap storage: alloc(T) or alloc(T, n)
// for an array of n elements. The result is a pointer to zeroed
// storage in the shared heap. With PerProc set (spelled allocpp) the
// storage comes from the executing process's arena instead — the
// mechanism behind the indirection transformation.
type AllocExpr struct {
	P       token.Pos
	Type    *TypeExpr
	Count   Expr // may be nil (single object)
	PerProc bool
}

func (e *Ident) Pos() token.Pos      { return e.P }
func (e *IntLit) Pos() token.Pos     { return e.P }
func (e *FloatLit) Pos() token.Pos   { return e.P }
func (e *PidExpr) Pos() token.Pos    { return e.P }
func (e *NprocsExpr) Pos() token.Pos { return e.P }
func (e *BinaryExpr) Pos() token.Pos { return e.P }
func (e *UnaryExpr) Pos() token.Pos  { return e.P }
func (e *DerefExpr) Pos() token.Pos  { return e.P }
func (e *IndexExpr) Pos() token.Pos  { return e.P }
func (e *FieldExpr) Pos() token.Pos  { return e.P }
func (e *CallExpr) Pos() token.Pos   { return e.P }
func (e *AllocExpr) Pos() token.Pos  { return e.P }

func (*Ident) exprNode()      {}
func (*IntLit) exprNode()     {}
func (*FloatLit) exprNode()   {}
func (*PidExpr) exprNode()    {}
func (*NprocsExpr) exprNode() {}
func (*BinaryExpr) exprNode() {}
func (*UnaryExpr) exprNode()  {}
func (*DerefExpr) exprNode()  {}
func (*IndexExpr) exprNode()  {}
func (*FieldExpr) exprNode()  {}
func (*CallExpr) exprNode()   {}
func (*AllocExpr) exprNode()  {}
