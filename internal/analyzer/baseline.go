package analyzer

import "fmt"

// BaselineFinding is one hit from the traditional scanner.
type BaselineFinding struct {
	Pos  Pos
	Func string
	Msg  string
}

// String renders "line:col: risky call ...".
func (f BaselineFinding) String() string {
	return fmt.Sprintf("%s: risky call to %s: %s", f.Pos, f.Func, f.Msg)
}

// riskyCalls is the classic ITS4/Flawfinder-style pattern list: unbounded
// string functions. Note what is absent: placement new is not a call and
// carries no recognisable sink name, which is the paper's §1 observation
// that "none of the existing tools can detect buffer overflow
// vulnerabilities due to placement new".
var riskyCalls = map[string]string{
	"strcpy":   "unbounded copy into destination buffer",
	"strcat":   "unbounded append into destination buffer",
	"gets":     "reads unbounded input",
	"sprintf":  "unbounded formatted write",
	"scanf":    "%s conversions read unbounded input",
	"vsprintf": "unbounded formatted write",
}

// Baseline runs the traditional scanner: a token-level sweep for calls to
// well-known dangerous C string functions. It is the comparator for
// experiment E16; it finds classic overflows and none of the
// placement-new ones.
func Baseline(src string) ([]BaselineFinding, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	return sweepRiskyCalls(toks), nil
}

// Baseline runs the traditional scanner over the tokens Analyze lexed,
// so a caller that runs both planes lexes the source once. It returns
// what Baseline returns for the analysed source.
func (r *Result) Baseline() []BaselineFinding {
	return sweepRiskyCalls(r.toks)
}

// sweepRiskyCalls reports each risky call in a token stream: an
// identifier from riskyCalls followed by "(".
func sweepRiskyCalls(toks []Token) []BaselineFinding {
	var out []BaselineFinding
	for i := 0; i+1 < len(toks); i++ {
		t := toks[i]
		if t.Kind != TokIdent {
			continue
		}
		msg, risky := riskyCalls[t.Text]
		if !risky {
			continue
		}
		if toks[i+1].Kind == TokPunct && toks[i+1].Text == "(" {
			out = append(out, BaselineFinding{
				Pos:  Pos{Line: t.Line, Col: t.Col},
				Func: t.Text,
				Msg:  msg,
			})
		}
	}
	return out
}
