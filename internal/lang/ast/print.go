package ast

import (
	"fmt"
	"strconv"
	"strings"

	"falseshare/internal/lang/token"
)

// Print renders a File as parc source text. The output parses back to
// an equivalent tree; it is used to display transformed programs and
// in round-trip tests.
func Print(f *File) string {
	p := &printer{}
	for _, s := range f.Structs {
		p.structDecl(s)
		p.nl()
	}
	for _, g := range f.Globals {
		p.varDecl(g, true)
		p.buf.WriteString(";\n")
	}
	if len(f.Globals) > 0 {
		p.nl()
	}
	for i, fn := range f.Funcs {
		if i > 0 {
			p.nl()
		}
		p.funcDecl(fn)
	}
	return p.buf.String()
}

// PrintStmt renders a single statement (used in diagnostics and tests).
func PrintStmt(s Stmt) string {
	p := &printer{}
	p.stmt(s)
	return strings.TrimRight(p.buf.String(), "\n")
}

// PrintExpr renders an expression as source text.
func PrintExpr(e Expr) string {
	p := &printer{}
	p.expr(e, 0)
	return p.buf.String()
}

type printer struct {
	buf    strings.Builder
	indent int
}

func (p *printer) nl() { p.buf.WriteByte('\n') }

func (p *printer) line(format string, args ...any) {
	p.tabs()
	fmt.Fprintf(&p.buf, format, args...)
	p.nl()
}

func (p *printer) tabs() {
	for i := 0; i < p.indent; i++ {
		p.buf.WriteString("    ")
	}
}

func (p *printer) structDecl(s *StructDecl) {
	p.line("struct %s {", s.Name)
	p.indent++
	for _, f := range s.Fields {
		p.tabs()
		p.buf.WriteString(f.Type.String())
		p.buf.WriteByte(' ')
		p.buf.WriteString(f.Name)
		for _, d := range f.Dims {
			p.buf.WriteByte('[')
			p.expr(d, 0)
			p.buf.WriteByte(']')
		}
		p.buf.WriteString(";\n")
	}
	p.indent--
	p.line("};")
}

func (p *printer) varDecl(d *VarDecl, fileScope bool) {
	p.tabs()
	if fileScope && d.Storage != Auto {
		p.buf.WriteString(d.Storage.String())
		p.buf.WriteByte(' ')
	}
	if d.Storage != Lock {
		p.buf.WriteString(d.Type.String())
		p.buf.WriteByte(' ')
	}
	p.buf.WriteString(d.Name)
	for _, dim := range d.Dims {
		p.buf.WriteByte('[')
		p.expr(dim, 0)
		p.buf.WriteByte(']')
	}
}

func (p *printer) funcDecl(fn *FuncDecl) {
	p.tabs()
	p.buf.WriteString(fn.Ret.String())
	p.buf.WriteByte(' ')
	p.buf.WriteString(fn.Name)
	p.buf.WriteByte('(')
	for i, param := range fn.Params {
		if i > 0 {
			p.buf.WriteString(", ")
		}
		p.buf.WriteString(param.Type.String())
		p.buf.WriteByte(' ')
		p.buf.WriteString(param.Name)
	}
	p.buf.WriteString(") ")
	p.block(fn.Body)
}

func (p *printer) block(b *BlockStmt) {
	p.buf.WriteString("{\n")
	p.indent++
	for _, s := range b.List {
		p.stmt(s)
	}
	p.indent--
	p.tabs()
	p.buf.WriteString("}\n")
}

func (p *printer) stmt(s Stmt) {
	switch x := s.(type) {
	case *BlockStmt:
		p.tabs()
		p.block(x)
	case *DeclStmt:
		p.varDecl(x.Decl, false)
		if x.Init != nil {
			p.buf.WriteString(" = ")
			p.expr(x.Init, 0)
		}
		p.buf.WriteString(";\n")
	case *AssignStmt:
		p.tabs()
		p.assignInline(x)
		p.buf.WriteString(";\n")
	case *ExprStmt:
		p.tabs()
		p.expr(x.X, 0)
		p.buf.WriteString(";\n")
	case *IfStmt:
		p.tabs()
		p.buf.WriteString("if (")
		p.expr(x.Cond, 0)
		p.buf.WriteString(") ")
		p.nested(x.Then)
		if x.Else != nil {
			p.tabs()
			p.buf.WriteString("else ")
			p.nested(x.Else)
		}
	case *WhileStmt:
		p.tabs()
		p.buf.WriteString("while (")
		p.expr(x.Cond, 0)
		p.buf.WriteString(") ")
		p.nested(x.Body)
	case *ForStmt:
		p.tabs()
		p.buf.WriteString("for (")
		switch init := x.Init.(type) {
		case nil:
		case *AssignStmt:
			p.assignInline(init)
		case *DeclStmt:
			ind := p.indent
			p.indent = 0
			p.varDecl(init.Decl, false)
			p.indent = ind
			if init.Init != nil {
				p.buf.WriteString(" = ")
				p.expr(init.Init, 0)
			}
		}
		p.buf.WriteString("; ")
		if x.Cond != nil {
			p.expr(x.Cond, 0)
		}
		p.buf.WriteString("; ")
		if post, ok := x.Post.(*AssignStmt); ok {
			p.assignInline(post)
		}
		p.buf.WriteString(") ")
		p.nested(x.Body)
	case *ReturnStmt:
		p.tabs()
		p.buf.WriteString("return")
		if x.X != nil {
			p.buf.WriteByte(' ')
			p.expr(x.X, 0)
		}
		p.buf.WriteString(";\n")
	case *BarrierStmt:
		p.line("barrier;")
	case *AcquireStmt:
		p.tabs()
		p.buf.WriteString("acquire(")
		p.expr(x.Lock, 0)
		p.buf.WriteString(");\n")
	case *ReleaseStmt:
		p.tabs()
		p.buf.WriteString("release(")
		p.expr(x.Lock, 0)
		p.buf.WriteString(");\n")
	}
}

// nested prints a statement that is the body of a control statement.
func (p *printer) nested(s Stmt) {
	if b, ok := s.(*BlockStmt); ok {
		p.block(b)
		return
	}
	p.nl()
	p.indent++
	p.stmt(s)
	p.indent--
}

func (p *printer) assignInline(a *AssignStmt) {
	p.expr(a.LHS, 0)
	p.buf.WriteString(" = ")
	p.expr(a.RHS, 0)
}

// expr prints e, parenthesizing when the context precedence requires.
func (p *printer) expr(e Expr, prec int) {
	switch x := e.(type) {
	case *Ident:
		p.buf.WriteString(x.Name)
	case *IntLit:
		p.buf.WriteString(strconv.FormatInt(x.Value, 10))
	case *FloatLit:
		s := strconv.FormatFloat(x.Value, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		p.buf.WriteString(s)
	case *PidExpr:
		p.buf.WriteString("pid")
	case *NprocsExpr:
		p.buf.WriteString("nprocs")
	case *BinaryExpr:
		op := x.Op.Precedence()
		if op < prec {
			p.buf.WriteByte('(')
		}
		p.expr(x.X, op)
		p.buf.WriteByte(' ')
		p.buf.WriteString(x.Op.String())
		p.buf.WriteByte(' ')
		p.expr(x.Y, op+1)
		if op < prec {
			p.buf.WriteByte(')')
		}
	case *UnaryExpr:
		p.buf.WriteString(x.Op.String())
		p.expr(x.X, 7)
	case *DerefExpr:
		p.buf.WriteByte('*')
		p.expr(x.X, 7)
	case *IndexExpr:
		p.expr(x.X, 8)
		p.buf.WriteByte('[')
		p.expr(x.Index, 0)
		p.buf.WriteByte(']')
	case *FieldExpr:
		p.expr(x.X, 8)
		if x.Arrow {
			p.buf.WriteString("->")
		} else {
			p.buf.WriteByte('.')
		}
		p.buf.WriteString(x.Name)
	case *CallExpr:
		p.buf.WriteString(x.Name)
		p.buf.WriteByte('(')
		for i, a := range x.Args {
			if i > 0 {
				p.buf.WriteString(", ")
			}
			p.expr(a, 0)
		}
		p.buf.WriteByte(')')
	case *AllocExpr:
		if x.PerProc {
			p.buf.WriteString("allocpp(")
		} else {
			p.buf.WriteString("alloc(")
		}
		p.buf.WriteString(x.Type.String())
		if x.Count != nil {
			p.buf.WriteString(", ")
			p.expr(x.Count, 0)
		}
		p.buf.WriteByte(')')
	}
}

// Helpers for constructing synthetic nodes in transformations.

// NewInt returns an integer literal node.
func NewInt(v int64) *IntLit { return &IntLit{Value: v} }

// NewIdent returns an identifier node.
func NewIdent(name string) *Ident { return &Ident{Name: name} }

// NewBinary returns a binary expression node.
func NewBinary(op token.Kind, x, y Expr) *BinaryExpr {
	return &BinaryExpr{Op: op, X: x, Y: y}
}
