package token

import "testing"

func TestLookupKeywords(t *testing.T) {
	cases := map[string]Kind{
		"int":     KW_INT,
		"double":  KW_DOUBLE,
		"void":    KW_VOID,
		"struct":  KW_STRUCT,
		"shared":  KW_SHARED,
		"private": KW_PRIVATE,
		"lock":    KW_LOCK,
		"if":      KW_IF,
		"else":    KW_ELSE,
		"while":   KW_WHILE,
		"for":     KW_FOR,
		"return":  KW_RETURN,
		"barrier": KW_BARRIER,
		"acquire": KW_ACQUIRE,
		"release": KW_RELEASE,
		"alloc":   KW_ALLOC,
		"allocpp": KW_ALLOCPP,
		"pid":     KW_PID,
		"nprocs":  KW_NPROCS,
		"main":    IDENT,
		"x":       IDENT,
		"Int":     IDENT, // keywords are case sensitive
	}
	for s, want := range cases {
		if got := Lookup(s); got != want {
			t.Errorf("Lookup(%q) = %v, want %v", s, got, want)
		}
	}
}

func TestIsKeyword(t *testing.T) {
	// Every keyword's spelling looks up to its own kind.
	for k := keywordBeg + 1; k < keywordEnd; k++ {
		if got := Lookup(k.String()); got != k {
			t.Errorf("Lookup(%q) = %v, want %v", k.String(), got, k)
		}
	}
}

func TestKindStrings(t *testing.T) {
	// Every declared kind must have a printable name (no "Kind(n)").
	for k := ILLEGAL; k < keywordEnd; k++ {
		if k == keywordBeg {
			continue
		}
		s := k.String()
		if s == "" || (len(s) > 5 && s[:5] == "Kind(") {
			t.Errorf("kind %d has no name", int(k))
		}
	}
}

func TestPrecedenceOrdering(t *testing.T) {
	// || < && < ==/!= < relational < additive < multiplicative.
	ordered := [][]Kind{
		{LOR},
		{LAND},
		{EQ, NEQ},
		{LT, LE, GT, GE},
		{PLUS, MINUS},
		{STAR, SLASH, PERCENT},
	}
	for level, kinds := range ordered {
		for _, k := range kinds {
			if got := k.Precedence(); got != level+1 {
				t.Errorf("%v precedence = %d, want %d", k, got, level+1)
			}
		}
	}
	for _, k := range []Kind{ASSIGN, NOT, LPAREN, IDENT, KW_IF} {
		if k.Precedence() != 0 {
			t.Errorf("%v should have no binary precedence", k)
		}
	}
}

func TestPos(t *testing.T) {
	p := Pos{Line: 3, Col: 7}
	if p.String() != "3:7" {
		t.Errorf("pos string: %q", p)
	}
	if !p.IsValid() || (Pos{}).IsValid() {
		t.Errorf("IsValid wrong")
	}
}

func TestTokenString(t *testing.T) {
	tok := Token{Kind: IDENT, Lit: "foo"}
	if tok.String() != `IDENT("foo")` {
		t.Errorf("token string: %q", tok)
	}
	tok = Token{Kind: PLUS}
	if tok.String() != "+" {
		t.Errorf("operator token string: %q", tok)
	}
}
