// Package token defines the lexical tokens of parc, the restricted
// explicitly-parallel C-like language accepted by the restructurer.
//
// parc follows the programming model of Section 2 of Jeremiassen &
// Eggers (PPoPP 1995): coarse-grained SPMD parallelism, shared and
// private storage classes, locks and barriers, and pointers restricted
// so that they may only point to objects of their declared type and may
// not participate in arithmetic.
package token

import "fmt"

// Kind enumerates the lexical token kinds.
type Kind int

// Token kinds. Literal kinds carry their text in Token.Lit.
const (
	ILLEGAL Kind = iota
	EOF
	COMMENT

	// Literals and identifiers.
	IDENT    // main
	INTLIT   // 123
	FLOATLIT // 1.5

	// Operators and delimiters.
	ASSIGN  // =
	PLUS    // +
	MINUS   // -
	STAR    // *
	SLASH   // /
	PERCENT // %

	EQ  // ==
	NEQ // !=
	LT  // <
	LE  // <=
	GT  // >
	GE  // >=

	LAND // &&
	LOR  // ||
	NOT  // !
	AMP  // &

	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACKET // [
	RBRACKET // ]
	COMMA    // ,
	SEMI     // ;
	DOT      // .
	ARROW    // ->

	// Keywords.
	keywordBeg
	KW_INT     // int
	KW_DOUBLE  // double
	KW_VOID    // void
	KW_STRUCT  // struct
	KW_SHARED  // shared
	KW_PRIVATE // private
	KW_LOCK    // lock
	KW_IF      // if
	KW_ELSE    // else
	KW_WHILE   // while
	KW_FOR     // for
	KW_RETURN  // return
	KW_FORALL  // forall (HPF-style distributed loop, paper §2 footnote)
	KW_BARRIER // barrier
	KW_ACQUIRE // acquire
	KW_RELEASE // release
	KW_ALLOC   // alloc
	KW_ALLOCPP // allocpp (per-process arena allocation)
	KW_PID     // pid
	KW_NPROCS  // nprocs
	keywordEnd
)

var kindNames = map[Kind]string{
	ILLEGAL:  "ILLEGAL",
	EOF:      "EOF",
	COMMENT:  "COMMENT",
	IDENT:    "IDENT",
	INTLIT:   "INTLIT",
	FLOATLIT: "FLOATLIT",

	ASSIGN:  "=",
	PLUS:    "+",
	MINUS:   "-",
	STAR:    "*",
	SLASH:   "/",
	PERCENT: "%",

	EQ:  "==",
	NEQ: "!=",
	LT:  "<",
	LE:  "<=",
	GT:  ">",
	GE:  ">=",

	LAND: "&&",
	LOR:  "||",
	NOT:  "!",
	AMP:  "&",

	LPAREN:   "(",
	RPAREN:   ")",
	LBRACE:   "{",
	RBRACE:   "}",
	LBRACKET: "[",
	RBRACKET: "]",
	COMMA:    ",",
	SEMI:     ";",
	DOT:      ".",
	ARROW:    "->",

	KW_INT:     "int",
	KW_DOUBLE:  "double",
	KW_VOID:    "void",
	KW_STRUCT:  "struct",
	KW_SHARED:  "shared",
	KW_PRIVATE: "private",
	KW_LOCK:    "lock",
	KW_IF:      "if",
	KW_ELSE:    "else",
	KW_WHILE:   "while",
	KW_FOR:     "for",
	KW_RETURN:  "return",
	KW_FORALL:  "forall",
	KW_BARRIER: "barrier",
	KW_ACQUIRE: "acquire",
	KW_RELEASE: "release",
	KW_ALLOC:   "alloc",
	KW_ALLOCPP: "allocpp",
	KW_PID:     "pid",
	KW_NPROCS:  "nprocs",
}

// String returns the human-readable spelling of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// keywords maps spellings to keyword kinds.
var keywords = map[string]Kind{}

func init() {
	for k := keywordBeg + 1; k < keywordEnd; k++ {
		keywords[kindNames[k]] = k
	}
}

// Lookup returns the keyword kind for an identifier spelling, or IDENT.
func Lookup(ident string) Kind {
	if k, ok := keywords[ident]; ok {
		return k
	}
	return IDENT
}

// Pos is a source position: 1-based line and column.
type Pos struct {
	Line int
	Col  int
}

// String formats the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// IsValid reports whether the position has been set.
func (p Pos) IsValid() bool { return p.Line > 0 }

// Token is a single lexical token with its position and literal text.
type Token struct {
	Kind Kind
	Pos  Pos
	Lit  string // literal text for IDENT, INTLIT, FLOATLIT, COMMENT
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case IDENT, INTLIT, FLOATLIT:
		return fmt.Sprintf("%s(%q)", t.Kind, t.Lit)
	default:
		return t.Kind.String()
	}
}

// Precedence returns the binary operator precedence for the kind
// (higher binds tighter), or 0 if the kind is not a binary operator.
func (k Kind) Precedence() int {
	switch k {
	case LOR:
		return 1
	case LAND:
		return 2
	case EQ, NEQ:
		return 3
	case LT, LE, GT, GE:
		return 4
	case PLUS, MINUS:
		return 5
	case STAR, SLASH, PERCENT:
		return 6
	}
	return 0
}
