package lexer

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"falseshare/internal/lang/token"
)

// scanAll scans the entire input and returns all tokens up to and
// including EOF.
func scanAll(src string) ([]token.Token, []*Error) {
	l := New(src)
	var toks []token.Token
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			break
		}
	}
	return toks, l.errs
}

// dump renders tokens one per line.
func dump(toks []token.Token) string {
	var b strings.Builder
	for _, t := range toks {
		fmt.Fprintf(&b, "%s %s\n", t.Pos, t)
	}
	return b.String()
}

func kinds(t *testing.T, src string) []token.Kind {
	t.Helper()
	toks, errs := scanAll(src)
	if len(errs) > 0 {
		t.Fatalf("scan errors: %v", errs)
	}
	out := make([]token.Kind, 0, len(toks))
	for _, tk := range toks {
		out = append(out, tk.Kind)
	}
	return out
}

func TestOperators(t *testing.T) {
	got := kinds(t, "= == != ! < <= > >= && || + - -> * / % ( ) { } [ ] , ; .")
	want := []token.Kind{
		token.ASSIGN, token.EQ, token.NEQ, token.NOT, token.LT, token.LE,
		token.GT, token.GE, token.LAND, token.LOR, token.PLUS, token.MINUS,
		token.ARROW, token.STAR, token.SLASH, token.PERCENT,
		token.LPAREN, token.RPAREN, token.LBRACE, token.RBRACE,
		token.LBRACKET, token.RBRACKET, token.COMMA, token.SEMI, token.DOT,
		token.EOF,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestNumbers(t *testing.T) {
	toks, errs := scanAll("0 42 3.25 10.0 7")
	if len(errs) > 0 {
		t.Fatalf("errors: %v", errs)
	}
	wantKinds := []token.Kind{token.INTLIT, token.INTLIT, token.FLOATLIT, token.FLOATLIT, token.INTLIT, token.EOF}
	wantLits := []string{"0", "42", "3.25", "10.0", "7", ""}
	for i, tk := range toks {
		if tk.Kind != wantKinds[i] || tk.Lit != wantLits[i] {
			t.Errorf("token %d = %v %q, want %v %q", i, tk.Kind, tk.Lit, wantKinds[i], wantLits[i])
		}
	}
}

func TestDotVsFloat(t *testing.T) {
	// "a.b" is field access, "1.5" is a float literal.
	got := kinds(t, "a.b")
	want := []token.Kind{token.IDENT, token.DOT, token.IDENT, token.EOF}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("a.b tokens: %v", got)
		}
	}
}

func TestComments(t *testing.T) {
	src := `
// line comment with symbols +-*/
x /* block
comment */ y
`
	got := kinds(t, src)
	want := []token.Kind{token.IDENT, token.IDENT, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("tokens: %v", got)
	}
}

func TestUnterminatedComment(t *testing.T) {
	_, errs := scanAll("x /* never closed")
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "unterminated") {
		t.Fatalf("errors: %v", errs)
	}
}

func TestIllegalChars(t *testing.T) {
	toks, errs := scanAll("x @ y | z")
	if len(errs) != 2 {
		t.Fatalf("expected 2 errors, got %v", errs)
	}
	illegal := 0
	for _, tk := range toks {
		if tk.Kind == token.ILLEGAL {
			illegal++
		}
	}
	if illegal != 2 {
		t.Fatalf("illegal tokens = %d, want 2", illegal)
	}
}

func TestPositions(t *testing.T) {
	toks, _ := scanAll("a\n  bb\n ccc")
	type pos struct{ line, col int }
	want := []pos{{1, 1}, {2, 3}, {3, 2}}
	for i, w := range want {
		if toks[i].Pos.Line != w.line || toks[i].Pos.Col != w.col {
			t.Errorf("token %d at %v, want %d:%d", i, toks[i].Pos, w.line, w.col)
		}
	}
}

func TestKeywordsScan(t *testing.T) {
	got := kinds(t, "shared private lock barrier acquire release alloc allocpp pid nprocs")
	want := []token.Kind{
		token.KW_SHARED, token.KW_PRIVATE, token.KW_LOCK, token.KW_BARRIER,
		token.KW_ACQUIRE, token.KW_RELEASE, token.KW_ALLOC, token.KW_ALLOCPP,
		token.KW_PID, token.KW_NPROCS, token.EOF,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// Property: the lexer terminates and produces EOF for arbitrary byte
// strings (no panics, no infinite loops).
func TestLexerTotalOnRandomInput(t *testing.T) {
	f := func(data []byte) bool {
		toks, _ := scanAll(string(data))
		return len(toks) > 0 && toks[len(toks)-1].Kind == token.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: lexing is insensitive to inserted whitespace between
// tokens (token kinds unchanged).
func TestWhitespaceInsensitive(t *testing.T) {
	src := "for(i=0;i<10;i=i+1){a[i]=b.c->d%2;}"
	spaced := "for ( i = 0 ; i < 10 ; i = i + 1 ) { a [ i ] = b . c -> d % 2 ; }"
	a := kinds(t, src)
	b := kinds(t, spaced)
	if len(a) != len(b) {
		t.Fatalf("token counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("token %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDump(t *testing.T) {
	toks, _ := scanAll("x = 1;")
	d := dump(toks)
	if !strings.Contains(d, `IDENT("x")`) || !strings.Contains(d, "1:5") {
		t.Errorf("dump output:\n%s", d)
	}
}
