// Package lexer implements a hand-written scanner for parc source text.
package lexer

import (
	"fmt"

	"falseshare/internal/lang/token"
)

// Error is a lexical error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans parc source text into tokens.
type Lexer struct {
	src  string
	off  int // byte offset of next rune
	line int
	col  int
	errs []*Error
}

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	l.errs = append(l.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	if l.off >= len(l.src) {
		return 0
	}
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) pos() token.Pos { return token.Pos{Line: l.line, Col: l.col} }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isLetter(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// skipSpaceAndComments consumes whitespace and // and /* */ comments.
func (l *Lexer) skipSpaceAndComments() {
	for {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.peek() != '\n' && l.peek() != 0 {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.peek() != 0 {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(start, "unterminated block comment")
			}
		default:
			return
		}
	}
}

// Next returns the next token in the input.
func (l *Lexer) Next() token.Token {
	l.skipSpaceAndComments()
	pos := l.pos()
	c := l.peek()
	if c == 0 {
		return token.Token{Kind: token.EOF, Pos: pos}
	}

	switch {
	case isLetter(c):
		start := l.off
		for isLetter(l.peek()) || isDigit(l.peek()) {
			l.advance()
		}
		lit := l.src[start:l.off]
		kind := token.Lookup(lit)
		if kind == token.IDENT {
			return token.Token{Kind: token.IDENT, Pos: pos, Lit: lit}
		}
		return token.Token{Kind: kind, Pos: pos, Lit: lit}

	case isDigit(c):
		start := l.off
		for isDigit(l.peek()) {
			l.advance()
		}
		kind := token.INTLIT
		if l.peek() == '.' && isDigit(l.peek2()) {
			kind = token.FLOATLIT
			l.advance()
			for isDigit(l.peek()) {
				l.advance()
			}
		}
		return token.Token{Kind: kind, Pos: pos, Lit: l.src[start:l.off]}
	}

	l.advance()
	two := func(next byte, ifTwo, ifOne token.Kind) token.Token {
		if l.peek() == next {
			l.advance()
			return token.Token{Kind: ifTwo, Pos: pos}
		}
		return token.Token{Kind: ifOne, Pos: pos}
	}

	switch c {
	case '=':
		return two('=', token.EQ, token.ASSIGN)
	case '!':
		return two('=', token.NEQ, token.NOT)
	case '<':
		return two('=', token.LE, token.LT)
	case '>':
		return two('=', token.GE, token.GT)
	case '&':
		return two('&', token.LAND, token.AMP)
	case '|':
		if l.peek() == '|' {
			l.advance()
			return token.Token{Kind: token.LOR, Pos: pos}
		}
		l.errorf(pos, "unexpected character %q (bitwise-or is not in parc)", "|")
		return token.Token{Kind: token.ILLEGAL, Pos: pos, Lit: "|"}
	case '+':
		return token.Token{Kind: token.PLUS, Pos: pos}
	case '-':
		if l.peek() == '>' {
			l.advance()
			return token.Token{Kind: token.ARROW, Pos: pos}
		}
		return token.Token{Kind: token.MINUS, Pos: pos}
	case '*':
		return token.Token{Kind: token.STAR, Pos: pos}
	case '/':
		return token.Token{Kind: token.SLASH, Pos: pos}
	case '%':
		return token.Token{Kind: token.PERCENT, Pos: pos}
	case '(':
		return token.Token{Kind: token.LPAREN, Pos: pos}
	case ')':
		return token.Token{Kind: token.RPAREN, Pos: pos}
	case '{':
		return token.Token{Kind: token.LBRACE, Pos: pos}
	case '}':
		return token.Token{Kind: token.RBRACE, Pos: pos}
	case '[':
		return token.Token{Kind: token.LBRACKET, Pos: pos}
	case ']':
		return token.Token{Kind: token.RBRACKET, Pos: pos}
	case ',':
		return token.Token{Kind: token.COMMA, Pos: pos}
	case ';':
		return token.Token{Kind: token.SEMI, Pos: pos}
	case '.':
		return token.Token{Kind: token.DOT, Pos: pos}
	}

	l.errorf(pos, "unexpected character %q", string(c))
	return token.Token{Kind: token.ILLEGAL, Pos: pos, Lit: string(c)}
}
