package analyzer

import (
	"fmt"
	"strings"
)

// lexer produces tokens from mini-C++ source. // and /* */ comments are
// skipped. Columns count bytes from 1, so the column of offset i is
// i-lineStart+1.
type lexer struct {
	src       string
	pos       int
	line      int
	lineStart int // offset of the current line's first byte
}

func (l *lexer) col() int { return l.pos - l.lineStart + 1 }

func (l *lexer) errf(msg string) error {
	return fmt.Errorf("analyzer: %d:%d: %s", l.line, l.col(), msg)
}

// peek returns the byte k past the current one, or 0 past the end.
func (l *lexer) peek(k int) byte {
	if l.pos+k >= len(l.src) {
		return 0
	}
	return l.src[l.pos+k]
}

// skipTo moves to offset end, counting the newlines it passes.
func (l *lexer) skipTo(end int) {
	if k := strings.Count(l.src[l.pos:end], "\n"); k > 0 {
		l.line += k
		l.lineStart = l.pos + strings.LastIndexByte(l.src[l.pos:end], '\n') + 1
	}
	l.pos = end
}

func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		switch c := l.src[l.pos]; {
		case c == '\n':
			l.pos++
			l.line++
			l.lineStart = l.pos
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.peek(1) == '/':
			if k := strings.IndexByte(l.src[l.pos:], '\n'); k >= 0 {
				l.pos += k
			} else {
				l.pos = len(l.src)
			}
		case c == '/' && l.peek(1) == '*':
			k := strings.Index(l.src[l.pos+2:], "*/")
			if k < 0 {
				l.skipTo(len(l.src))
				return l.errf("unterminated block comment")
			}
			l.skipTo(l.pos + 2 + k + 2)
		default:
			return nil
		}
	}
	return nil
}

func isAlpha(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// isNumberByte reports whether c continues a number: digits, hex digits,
// x and the decimal point.
func isNumberByte(c byte) bool {
	return isDigit(c) || c == 'x' || c == 'X' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F' || c == '.'
}

func isKeyword(s string) bool {
	switch s {
	case "class", "public", "private", "protected",
		"virtual", "new", "delete", "return",
		"if", "else", "while", "for",
		"break", "continue",
		"bool", "char", "short", "int", "long",
		"float", "double", "void", "unsigned",
		"true", "false", "sizeof", "struct":
		return true
	}
	return false
}

// punctLen returns the length of the punctuation token at the current
// byte: the longest match among <<= >>= -> :: << >> <= >= == != && ||
// ++ -- += -= *= /=, else 1.
func (l *lexer) punctLen() int {
	c, c1 := l.src[l.pos], l.peek(1)
	switch c {
	case '<', '>':
		if c1 == c && l.peek(2) == '=' {
			return 3
		}
		if c1 == c || c1 == '=' {
			return 2
		}
	case '-':
		if c1 == '>' || c1 == '-' || c1 == '=' {
			return 2
		}
	case '+':
		if c1 == '+' || c1 == '=' {
			return 2
		}
	case '&', '|', ':':
		if c1 == c {
			return 2
		}
	case '=', '!', '*', '/':
		if c1 == '=' {
			return 2
		}
	}
	return 1
}

// next returns the next token. Its Text is a substring of the source,
// except for a punctuation byte >= 0x80, whose Text is that byte's code
// point (U+0080..U+00FF) in UTF-8.
func (l *lexer) next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	t := Token{Kind: TokEOF, Line: l.line, Col: l.col()}
	if l.pos >= len(l.src) {
		return t, nil
	}
	start := l.pos
	switch c := l.src[start]; {
	case isAlpha(c):
		for l.pos++; l.pos < len(l.src) && (isAlpha(l.src[l.pos]) || isDigit(l.src[l.pos])); l.pos++ {
		}
		t.Kind, t.Text = TokIdent, l.src[start:l.pos]
		if isKeyword(t.Text) {
			t.Kind = TokKeyword
		}
	case isDigit(c):
		for l.pos++; l.pos < len(l.src) && isNumberByte(l.src[l.pos]); l.pos++ {
		}
		t.Kind, t.Text = TokNumber, l.src[start:l.pos]
	case c == '"' || c == '\'':
		kind, what := TokString, "string"
		if c == '\'' {
			kind, what = TokNumber, "character"
		}
		// A backslash escapes the byte after it, whatever it is.
		end := start + 1
		for end < len(l.src) && l.src[end] != c {
			if l.src[end] == '\\' && end+1 < len(l.src) {
				end++
			}
			end++
		}
		if end >= len(l.src) {
			l.skipTo(end)
			return Token{}, l.errf("unterminated " + what + " literal")
		}
		t.Kind, t.Text = kind, l.src[start+1:end]
		l.skipTo(end + 1)
	default:
		l.pos += l.punctLen()
		t.Kind, t.Text = TokPunct, l.src[start:l.pos]
		if c >= 0x80 {
			t.Text = string(rune(c))
		}
	}
	return t, nil
}

// lexAll tokenizes the whole input (including the trailing EOF token).
func lexAll(src string) ([]Token, error) {
	l := &lexer{src: src, line: 1}
	// The corpus and foundry programs average a token per four bytes and
	// seldom pass one per three, so this capacity is rarely outgrown.
	out := make([]Token, 0, len(src)/3+1)
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
