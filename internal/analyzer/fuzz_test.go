package analyzer

import (
	"reflect"
	"testing"
)

// FuzzAnalyze checks that arbitrary inputs never panic the front end or
// the checks: every input either parses and analyses or returns an error.
// An accepted input's Result.Baseline, which sweeps the tokens Analyze
// lexed, must equal Baseline's sweep of a fresh lex.
func FuzzAnalyze(f *testing.F) {
	for _, e := range Corpus() {
		f.Add(e.Src)
	}
	f.Add("class A {")
	f.Add("void f() { new (x) ; }")
	f.Add("int x = /* unterminated")
	f.Add(`void f() { char *s = "unterminated`)
	f.Add("class A : public A {};")
	f.Add("void f() { for(;;) {} }")
	f.Add("void f(void) { sizeof(int); }")
	f.Fuzz(func(t *testing.T, src string) {
		r, err := Analyze(src, Options{})
		if err != nil {
			return
		}
		want, err := Baseline(src)
		if err != nil {
			t.Fatalf("Analyze accepted a source Baseline cannot lex: %v", err)
		}
		if got := r.Baseline(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Result.Baseline = %+v, Baseline(src) = %+v", got, want)
		}
		// Accepted programs produce well-formed diagnostics.
		for _, d := range r.Diags {
			if d.Code == "" || d.Pos.Line < 1 {
				t.Fatalf("malformed diagnostic %+v", d)
			}
		}
	})
}

// FuzzBaseline checks the traditional scanner's robustness.
func FuzzBaseline(f *testing.F) {
	f.Add("strcpy(a, b);")
	f.Add("void f() { gets(buf); }")
	f.Add("\"unterminated")
	f.Fuzz(func(t *testing.T, src string) {
		fs, err := Baseline(src)
		if err != nil {
			return
		}
		for _, x := range fs {
			if x.Func == "" || x.Pos.Line < 1 {
				t.Fatalf("malformed finding %+v", x)
			}
		}
	})
}
