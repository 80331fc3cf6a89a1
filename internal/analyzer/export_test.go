package analyzer

// The lexer's differential tests live in package analyzer_test because
// they import foundry, which imports analyzer.
var (
	LexAll    = lexAll
	RefLexAll = refLexAll
)
