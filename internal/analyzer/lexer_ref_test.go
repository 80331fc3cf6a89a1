package analyzer

import "fmt"

// This file keeps the analyzer's original lexer, unchanged except that
// its package-level names carry a ref prefix, as the reference that
// TestLexMatchesReference and FuzzLexMatchesReference hold lexAll equal
// to: the same tokens (Kind, Text, Line, Col) and the same error text.

// refLexer produces tokens from mini-C++ source. // and /* */ comments are
// skipped.
type refLexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newRefLexer(src string) *refLexer {
	return &refLexer{src: src, line: 1, col: 1}
}

func (l *refLexer) errf(format string, args ...any) error {
	return fmt.Errorf("analyzer: %d:%d: %s", l.line, l.col, fmt.Sprintf(format, args...))
}

func (l *refLexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *refLexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *refLexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *refLexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peekByte() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errf("unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func refIsAlpha(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func refIsDigit(c byte) bool { return c >= '0' && c <= '9' }

// multi-character punctuation, longest first.
var refMultiPunct = []string{
	"<<=", ">>=", "->", "::", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=",
}

// next returns the next token.
func (l *refLexer) next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Line: l.line, Col: l.col}, nil
	}
	startLine, startCol := l.line, l.col
	c := l.peekByte()
	switch {
	case refIsAlpha(c):
		start := l.pos
		for l.pos < len(l.src) && (refIsAlpha(l.peekByte()) || refIsDigit(l.peekByte())) {
			l.advance()
		}
		text := l.src[start:l.pos]
		kind := TokIdent
		if refKeywords[text] {
			kind = TokKeyword
		}
		return Token{Kind: kind, Text: text, Line: startLine, Col: startCol}, nil
	case refIsDigit(c):
		start := l.pos
		for l.pos < len(l.src) && (refIsDigit(l.peekByte()) || l.peekByte() == 'x' || l.peekByte() == 'X' ||
			l.peekByte() >= 'a' && l.peekByte() <= 'f' || l.peekByte() >= 'A' && l.peekByte() <= 'F' || l.peekByte() == '.') {
			l.advance()
		}
		return Token{Kind: TokNumber, Text: l.src[start:l.pos], Line: startLine, Col: startCol}, nil
	case c == '"':
		l.advance()
		start := l.pos
		for l.pos < len(l.src) && l.peekByte() != '"' {
			if l.peekByte() == '\\' {
				l.advance()
				if l.pos >= len(l.src) {
					break
				}
			}
			l.advance()
		}
		if l.pos >= len(l.src) {
			return Token{}, l.errf("unterminated string literal")
		}
		text := l.src[start:l.pos]
		l.advance() // closing quote
		return Token{Kind: TokString, Text: text, Line: startLine, Col: startCol}, nil
	case c == '\'':
		l.advance()
		start := l.pos
		for l.pos < len(l.src) && l.peekByte() != '\'' {
			if l.peekByte() == '\\' {
				l.advance()
			}
			if l.pos < len(l.src) {
				l.advance()
			}
		}
		if l.pos >= len(l.src) {
			return Token{}, l.errf("unterminated character literal")
		}
		text := l.src[start:l.pos]
		l.advance()
		return Token{Kind: TokNumber, Text: text, Line: startLine, Col: startCol}, nil
	default:
		for _, mp := range refMultiPunct {
			if len(l.src)-l.pos >= len(mp) && l.src[l.pos:l.pos+len(mp)] == mp {
				for range mp {
					l.advance()
				}
				return Token{Kind: TokPunct, Text: mp, Line: startLine, Col: startCol}, nil
			}
		}
		l.advance()
		return Token{Kind: TokPunct, Text: string(c), Line: startLine, Col: startCol}, nil
	}
}

// refLexAll tokenizes the whole input (including the trailing EOF token).
func refLexAll(src string) ([]Token, error) {
	l := newRefLexer(src)
	var out []Token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}

var refKeywords = map[string]bool{
	"class": true, "public": true, "private": true, "protected": true,
	"virtual": true, "new": true, "delete": true, "return": true,
	"if": true, "else": true, "while": true, "for": true,
	"break": true, "continue": true,
	"bool": true, "char": true, "short": true, "int": true, "long": true,
	"float": true, "double": true, "void": true, "unsigned": true,
	"true": true, "false": true, "sizeof": true, "struct": true,
}
