// Package analyzer implements the static-analysis tool the paper's
// conclusion announces ("We are currently building a tool for static
// analysis of code and for detecting vulnerabilities due to placement
// new", §7): a front end for a mini-C++ subset and a set of checks that
// flag dangerous placement-new sites.
//
// The checks mirror §5.1's discussion of what static detection can and
// cannot do:
//
//	PN001  object/array placement provably larger than its arena
//	PN002  placement size influenced by tainted input (cin, recv, ...)
//	PN003  arena unresolvable ("placement new just operates on an
//	       address, not on a lexically declared array")
//	PN004  placement size not statically known
//	PN005  placed class incompatible with the arena's class
//	PN006  arena reused without sanitization (information leak)
//	PN007  placement without matching placement delete (memory leak)
//
// A deliberately traditional baseline scanner (Baseline) detects only the
// classic strcpy/gets/sprintf patterns, reproducing the paper's claim
// that existing tools miss every placement-new vulnerability.
package analyzer

import "fmt"

// TokKind classifies lexical tokens.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokNumber
	TokString
	TokPunct // single/multi char punctuation, in Text
	TokKeyword
)

// Token is one lexical token with its source position.
type Token struct {
	Kind TokKind
	Text string
	Line int
	Col  int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// Pos is a source position.
type Pos struct {
	Line int
	Col  int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }
