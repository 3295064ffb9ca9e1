// Package types implements parc's semantic types, symbol tables and
// type checker.
//
// The checker also enforces the model restrictions of Section 2 of the
// paper: pointers may only point to objects of their declared type,
// pointer arithmetic is disallowed, and every function is defined in
// the single translation unit being compiled.
package types

import (
	"fmt"

	"falseshare/internal/lang/ast"
)

// Kind enumerates the semantic type kinds.
type Kind int

const (
	Invalid Kind = iota
	Int          // 4 bytes
	Double       // 8 bytes
	Void         // function results only
	Pointer      // 8 bytes
	Array        // fixed-extent array
	StructK      // record
	LockT        // lock word, 4 bytes
)

// Word sizes (bytes). The cache simulator classifies sharing at
// word (4-byte) granularity, matching the era's 32-bit data words.
const (
	IntSize     = 4
	DoubleSize  = 8
	PointerSize = 8
	LockSize    = 4
)

// Type is a parc semantic type.
type Type struct {
	Kind   Kind
	Elem   *Type       // Pointer, Array element type
	Len    ast.Expr    // Array extent (constant expr, may use nprocs)
	Struct *StructInfo // StructK
}

var (
	IntType    = &Type{Kind: Int}
	DoubleType = &Type{Kind: Double}
	VoidType   = &Type{Kind: Void}
	LockType   = &Type{Kind: LockT}
)

// PointerTo returns the pointer type to elem.
func PointerTo(elem *Type) *Type { return &Type{Kind: Pointer, Elem: elem} }

// ArrayOf returns the array type with the given extent expression.
func ArrayOf(elem *Type, n ast.Expr) *Type {
	return &Type{Kind: Array, Elem: elem, Len: n}
}

// String renders the type.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case Int:
		return "int"
	case Double:
		return "double"
	case Void:
		return "void"
	case LockT:
		return "lock"
	case Pointer:
		return t.Elem.String() + "*"
	case Array:
		return t.Elem.String() + "[" + ast.PrintExpr(t.Len) + "]"
	case StructK:
		return "struct " + t.Struct.Name
	}
	return "invalid"
}

// Equal reports structural type equality. Array extents are compared
// by printed form (extents are constant expressions).
func (t *Type) Equal(u *Type) bool {
	if t == nil || u == nil {
		return t == u
	}
	if t.Kind != u.Kind {
		return false
	}
	switch t.Kind {
	case Pointer:
		return t.Elem.Equal(u.Elem)
	case Array:
		return t.Elem.Equal(u.Elem) && ast.PrintExpr(t.Len) == ast.PrintExpr(u.Len)
	case StructK:
		return t.Struct.Name == u.Struct.Name
	}
	return true
}

// IsScalar reports whether the type is a scalar value type (int,
// double, or pointer) that fits in a memory cell.
func (t *Type) IsScalar() bool {
	switch t.Kind {
	case Int, Double, Pointer, LockT:
		return true
	}
	return false
}

// ScalarSize returns the byte size of a scalar type, or an error for
// non-scalar types (arrays, structs, void). Callers that have already
// proven the type scalar can use MustScalarSize.
func (t *Type) ScalarSize() (int64, error) {
	switch t.Kind {
	case Int:
		return IntSize, nil
	case Double:
		return DoubleSize, nil
	case Pointer:
		return PointerSize, nil
	case LockT:
		return LockSize, nil
	}
	return 0, fmt.Errorf("types: ScalarSize of non-scalar %s", t)
}

// MustScalarSize is ScalarSize for call sites with a proven scalar
// invariant (e.g. inside a switch over scalar kinds); it panics on
// non-scalar types.
func (t *Type) MustScalarSize() int64 {
	n, err := t.ScalarSize()
	if err != nil {
		panic(err.Error())
	}
	return n
}

// StructInfo is the semantic view of a struct declaration.
type StructInfo struct {
	Name   string
	Decl   *ast.StructDecl
	Fields []*Field
}

// Field returns the named field, or nil.
func (s *StructInfo) Field(name string) *Field {
	for _, f := range s.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Field is a struct member with its semantic type.
type Field struct {
	Name   string
	Type   *Type
	Parent *StructInfo
	Index  int
}

// QualifiedName returns "Struct.field" for diagnostics and analysis keys.
func (f *Field) QualifiedName() string { return f.Parent.Name + "." + f.Name }

// SymKind distinguishes the kinds of named program entities.
type SymKind int

const (
	GlobalVar SymKind = iota
	LocalVar
	ParamVar
	FuncSym
)

// Symbol is a named program entity.
type Symbol struct {
	Name    string
	Kind    SymKind
	Storage ast.StorageClass // for variables
	Type    *Type            // variable type or function result type
	Decl    ast.Node
	Func    string // enclosing function for locals/params
	Slot    int    // frame slot index for locals/params
}

// IsShared reports whether the symbol denotes shared data (shared
// globals and locks live in the shared address space).
func (s *Symbol) IsShared() bool {
	return s.Kind == GlobalVar && (s.Storage == ast.Shared || s.Storage == ast.Lock)
}

// FuncInfo is the semantic view of a function.
type FuncInfo struct {
	Name   string
	Decl   *ast.FuncDecl
	Ret    *Type
	Params []*Symbol
	Locals []*Symbol // declaration order, includes params first
}

// Info is the result of type checking a file.
type Info struct {
	File    *ast.File
	Structs map[string]*StructInfo
	Globals map[string]*Symbol
	Funcs   map[string]*FuncInfo
	// Types maps every expression to its type.
	Types map[ast.Expr]*Type
	// Uses maps identifier expressions to their symbols.
	Uses map[*ast.Ident]*Symbol
	// FieldUses maps field selections to the selected field.
	FieldUses map[*ast.FieldExpr]*Field
	// LocalDecls maps local declarations to their symbols.
	LocalDecls map[*ast.VarDecl]*Symbol
}

// TypeOf returns the checked type of e (nil if unknown).
func (i *Info) TypeOf(e ast.Expr) *Type { return i.Types[e] }

// SharedGlobals returns the shared (and lock) file-scope variables in
// declaration order: the candidate set for false-sharing analysis.
func (i *Info) SharedGlobals() []*Symbol {
	var out []*Symbol
	for _, g := range i.File.Globals {
		s := i.Globals[g.Name]
		if s != nil && s.IsShared() {
			out = append(out, s)
		}
	}
	return out
}
