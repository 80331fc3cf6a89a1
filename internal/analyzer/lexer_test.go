package analyzer_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/foundry"
)

// checkLexMatchesReference requires lexAll and the reference lexer to
// agree on src: the same tokens, or the same error text.
func checkLexMatchesReference(t *testing.T, name, src string) {
	t.Helper()
	got, err := analyzer.LexAll(src)
	want, wantErr := analyzer.RefLexAll(src)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", name, err, wantErr)
	}
	if !slices.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("%s: token %d is %+v, reference %+v", name, i, got[i], want[i])
			}
		}
		t.Fatalf("%s: %d tokens, reference %d", name, len(got), len(want))
	}
}

func TestLexMatchesReference(t *testing.T) {
	for _, e := range analyzer.Corpus() {
		checkLexMatchesReference(t, e.Name, e.Src)
	}
	for i := 0; i < 500; i++ {
		g, err := foundry.Generate(42, i)
		if err != nil {
			t.Fatal(err)
		}
		checkLexMatchesReference(t, g.Spec.Name, g.Src)
	}
}

// lexEdgeCases are inputs where a hand-written lexer most easily departs
// from the reference: bytes >= 0x80, which the reference converts
// through rune; every unterminated form; a trailing backslash; runs of
// operators that overlap; operators outside the set (&=, %=), which lex
// as two tokens; every keyword, some of which no program in the corpus
// uses; and every byte a number may continue with.
var lexEdgeCases = []string{
	"\xc3", "\x80", "\xff", "a\xc3\xa9b", "x = \xff;",
	"/*", "int x; /* open\n", `"`, `"abc`, "'", "'a",
	`\`, `"abc\`, `'\`, "\"a\\\nb\" c", "'\\\n' d", "/* a\nb */ c // d\ne",
	"a<<=b>>=c->d::e", "&=", "%=", "!==", "<<<=>>>=", "a--->b", "x/=y/ /z",
	"class public private protected virtual new delete return if else while for " +
		"break continue bool char short int long float double void unsigned " +
		"true false sizeof struct structs Class _int int2",
	"0x1F.5e3 0X1f 0xAb.Cd 12g", "\x00<\x00",
}

func FuzzLexMatchesReference(f *testing.F) {
	for _, e := range analyzer.Corpus() {
		f.Add(e.Src)
	}
	for _, s := range lexEdgeCases {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkLexMatchesReference(t, "input", src)
	})
}

// TestLexAllocations pins the lexer to its token slice: one allocation
// per program, plus at most one growth of the slice.
func TestLexAllocations(t *testing.T) {
	for _, e := range analyzer.Corpus() {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := analyzer.LexAll(e.Src); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("%s: lexAll made %.0f allocations, want at most 2", e.Name, allocs)
		}
	}
}
