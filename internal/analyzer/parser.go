package analyzer

import (
	"fmt"
	"strconv"
	"strings"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks    []Token
	pos     int
	classes map[string]bool // class names seen so far, for decl/expr disambiguation
}

// ParseProgram parses a mini-C++ translation unit.
func ParseProgram(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	return parseTokens(toks)
}

// parseTokens parses a token stream lexAll produced.
func parseTokens(toks []Token) (*Program, error) {
	p := &parser{toks: toks, classes: make(map[string]bool)}
	return p.program()
}

func (p *parser) cur() Token { return p.toks[p.pos] }
func (p *parser) at(text string) bool {
	t := p.cur()
	return (t.Kind == TokPunct || t.Kind == TokKeyword) && t.Text == text
}

func (p *parser) advance() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *parser) accept(text string) bool {
	if p.at(text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(text string) (Token, error) {
	if !p.at(text) {
		return Token{}, p.errf("expected %q, found %s", text, p.cur())
	}
	return p.advance(), nil
}

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("analyzer: %d:%d: %s", t.Line, t.Col, fmt.Sprintf(format, args...))
}

func (p *parser) posOf(t Token) Pos { return Pos{Line: t.Line, Col: t.Col} }

var builtinTypes = map[string]bool{
	"bool": true, "char": true, "short": true, "int": true, "long": true,
	"float": true, "double": true, "void": true, "unsigned": true,
}

// atType reports whether the current token begins a type.
func (p *parser) atType() bool {
	t := p.cur()
	switch t.Kind {
	case TokKeyword:
		return builtinTypes[t.Text]
	case TokIdent:
		return p.classes[t.Text]
	default:
		return false
	}
}

// typeName parses a base type name (possibly "unsigned int" etc.) and
// pointer stars.
func (p *parser) typeName() (SrcType, error) {
	t := p.cur()
	if !p.atType() {
		return SrcType{}, p.errf("expected type, found %s", t)
	}
	name := p.advance().Text
	if name == "unsigned" && p.atType() && p.cur().Kind == TokKeyword {
		name = "unsigned " + p.advance().Text
	}
	st := SrcType{Name: name}
	for p.accept("*") {
		st.Stars++
	}
	return st, nil
}

// program parses the translation unit.
func (p *parser) program() (*Program, error) {
	prog := &Program{}
	for p.cur().Kind != TokEOF {
		switch {
		case p.at("class") || p.at("struct"):
			cd, err := p.classDecl()
			if err != nil {
				return nil, err
			}
			prog.Classes = append(prog.Classes, cd)
		default:
			ty, err := p.typeName()
			if err != nil {
				return nil, err
			}
			nameTok := p.cur()
			if nameTok.Kind != TokIdent {
				return nil, p.errf("expected declarator name, found %s", nameTok)
			}
			p.advance()
			if p.at("(") {
				fn, err := p.funcRest(ty, nameTok)
				if err != nil {
					return nil, err
				}
				prog.Funcs = append(prog.Funcs, fn)
				continue
			}
			decls, err := p.varRest(ty, nameTok)
			if err != nil {
				return nil, err
			}
			prog.Globals = append(prog.Globals, decls...)
		}
	}
	return prog, nil
}

// classDecl parses `class Name [: [public] Base, ...] { members };`.
func (p *parser) classDecl() (*ClassDecl, error) {
	kw := p.advance() // class / struct
	nameTok := p.cur()
	if nameTok.Kind != TokIdent {
		return nil, p.errf("expected class name")
	}
	p.advance()
	cd := &ClassDecl{Pos: p.posOf(kw), Name: nameTok.Text}
	p.classes[cd.Name] = true
	if p.accept(":") {
		for {
			p.accept("public")
			p.accept("private")
			p.accept("protected")
			base := p.cur()
			if base.Kind != TokIdent {
				return nil, p.errf("expected base class name")
			}
			p.advance()
			cd.Bases = append(cd.Bases, base.Text)
			if !p.accept(",") {
				break
			}
		}
	}
	if _, err := p.expect("{"); err != nil {
		return nil, err
	}
	for !p.at("}") {
		if p.cur().Kind == TokEOF {
			return nil, p.errf("unterminated class body")
		}
		// Access specifiers.
		if p.at("public") || p.at("private") || p.at("protected") {
			p.advance()
			if _, err := p.expect(":"); err != nil {
				return nil, err
			}
			continue
		}
		// Virtual method declarations.
		if p.accept("virtual") {
			if _, err := p.typeName(); err != nil {
				return nil, err
			}
			m := p.cur()
			if m.Kind != TokIdent {
				return nil, p.errf("expected virtual method name")
			}
			p.advance()
			if err := p.skipParens(); err != nil {
				return nil, err
			}
			if !p.accept(";") {
				if err := p.skipBraces(); err != nil {
					return nil, err
				}
			}
			cd.Virtuals = append(cd.Virtuals, m.Text)
			continue
		}
		// Constructor (name matches class): skip.
		if p.cur().Kind == TokIdent && p.cur().Text == cd.Name && p.toks[p.pos+1].Text == "(" {
			p.advance()
			if err := p.skipParens(); err != nil {
				return nil, err
			}
			// Optional member-initialiser list.
			if p.accept(":") {
				for !p.at("{") && !p.at(";") && p.cur().Kind != TokEOF {
					p.advance()
				}
			}
			if !p.accept(";") {
				if err := p.skipBraces(); err != nil {
					return nil, err
				}
			}
			continue
		}
		// Field declaration(s).
		ty, err := p.typeName()
		if err != nil {
			return nil, err
		}
		nameTok := p.cur()
		if nameTok.Kind != TokIdent {
			return nil, p.errf("expected field name")
		}
		p.advance()
		// Non-virtual method definitions inside the class body: skip.
		if p.at("(") {
			if err := p.skipParens(); err != nil {
				return nil, err
			}
			if !p.accept(";") {
				if err := p.skipBraces(); err != nil {
					return nil, err
				}
			}
			continue
		}
		decls, err := p.varRest(ty, nameTok)
		if err != nil {
			return nil, err
		}
		cd.Fields = append(cd.Fields, decls...)
	}
	p.advance() // }
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	return cd, nil
}

// varRest parses the remainder of a (possibly comma-separated) variable
// declaration, having consumed the type and the first name.
func (p *parser) varRest(ty SrcType, first Token) ([]*VarDecl, error) {
	var out []*VarDecl
	nameTok := first
	for {
		d := &VarDecl{Pos: p.posOf(nameTok), Type: ty, Name: nameTok.Text}
		if p.accept("[") {
			n, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect("]"); err != nil {
				return nil, err
			}
			d.Type.ArrayLen = n
		}
		if p.accept("=") {
			init, err := p.expr()
			if err != nil {
				return nil, err
			}
			d.Init = init
		} else if p.at("(") {
			// Direct initialisation `Student s(3.9, 2008, 2);` — treat the
			// constructor call as the initialiser.
			p.advance()
			call := &Call{Pos: d.Pos, Name: ty.Name}
			for !p.at(")") {
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if !p.accept(",") {
					break
				}
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
			d.Init = call
		}
		out = append(out, d)
		if !p.accept(",") {
			break
		}
		nameTok = p.cur()
		if nameTok.Kind != TokIdent {
			// `double gpa, int year` (the paper's loose style): allow a
			// fresh type before the next declarator.
			if p.atType() {
				var err error
				ty, err = p.typeName()
				if err != nil {
					return nil, err
				}
				nameTok = p.cur()
			}
			if nameTok.Kind != TokIdent {
				return nil, p.errf("expected declarator name")
			}
		}
		p.advance()
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	return out, nil
}

// funcRest parses a function definition after its return type and name.
func (p *parser) funcRest(ret SrcType, nameTok Token) (*FuncDecl, error) {
	fn := &FuncDecl{Pos: p.posOf(nameTok), Ret: ret, Name: nameTok.Text}
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	for !p.at(")") {
		// `f(void)` — an empty parameter list, not a void-typed parameter.
		if p.at("void") && p.toks[p.pos+1].Kind == TokPunct && p.toks[p.pos+1].Text == ")" {
			p.advance()
			break
		}
		ty, err := p.typeName()
		if err != nil {
			return nil, err
		}
		pn := p.cur()
		if pn.Kind != TokIdent {
			return nil, p.errf("expected parameter name")
		}
		p.advance()
		prm := &VarDecl{Pos: p.posOf(pn), Type: ty, Name: pn.Text}
		if p.accept("[") {
			if !p.at("]") {
				n, err := p.expr()
				if err != nil {
					return nil, err
				}
				prm.Type.ArrayLen = n
			}
			if _, err := p.expect("]"); err != nil {
				return nil, err
			}
		}
		fn.Params = append(fn.Params, prm)
		if !p.accept(",") {
			break
		}
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *parser) block() (*Block, error) {
	open, err := p.expect("{")
	if err != nil {
		return nil, err
	}
	b := &Block{Pos: p.posOf(open)}
	for !p.at("}") {
		if p.cur().Kind == TokEOF {
			return nil, p.errf("unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.advance()
	return b, nil
}

func (p *parser) stmt() (Stmt, error) {
	t := p.cur()
	switch {
	case p.at("{"):
		return p.block()
	case p.at("if"):
		p.advance()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		then, err := p.stmt()
		if err != nil {
			return nil, err
		}
		st := &IfStmt{Pos: p.posOf(t), Cond: cond, Then: then}
		if p.accept("else") {
			els, err := p.stmt()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
		return st, nil
	case p.at("while"):
		p.advance()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Pos: p.posOf(t), Cond: cond, Body: body}, nil
	case p.at("for"):
		p.advance()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		st := &ForStmt{Pos: p.posOf(t)}
		if !p.accept(";") {
			init, err := p.simpleStmt()
			if err != nil {
				return nil, err
			}
			st.Init = init
			if _, err := p.expect(";"); err != nil {
				return nil, err
			}
		}
		if !p.at(";") {
			cond, err := p.expr()
			if err != nil {
				return nil, err
			}
			st.Cond = cond
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		if !p.at(")") {
			post, err := p.expr()
			if err != nil {
				return nil, err
			}
			st.Post = post
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		st.Body = body
		return st, nil
	case p.at("return"):
		p.advance()
		st := &ReturnStmt{Pos: p.posOf(t)}
		if !p.at(";") {
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			st.X = x
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return st, nil
	case p.at("break"), p.at("continue"):
		// Loop-control statements carry no analysable state; represent
		// them as empty statements.
		p.advance()
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &ExprStmt{Pos: p.posOf(t), X: nil}, nil
	case p.at("delete"):
		p.advance()
		if p.accept("[") {
			if _, err := p.expect("]"); err != nil {
				return nil, err
			}
		}
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &ExprStmt{Pos: p.posOf(t), X: &Call{Pos: p.posOf(t), Name: "delete", Args: []Expr{x}}}, nil
	case p.at(";"):
		p.advance()
		return &ExprStmt{Pos: p.posOf(t), X: nil}, nil
	default:
		s, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return s, nil
	}
}

// simpleStmt parses a declaration or expression without the trailing ';'.
func (p *parser) simpleStmt() (Stmt, error) {
	if p.atType() {
		ty, err := p.typeName()
		if err != nil {
			return nil, err
		}
		nameTok := p.cur()
		if nameTok.Kind != TokIdent {
			return nil, p.errf("expected declarator name")
		}
		p.advance()
		d := &VarDecl{Pos: p.posOf(nameTok), Type: ty, Name: nameTok.Text}
		if p.accept("[") {
			n, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect("]"); err != nil {
				return nil, err
			}
			d.Type.ArrayLen = n
		}
		if p.accept("=") {
			init, err := p.expr()
			if err != nil {
				return nil, err
			}
			d.Init = init
		} else if p.at("(") {
			p.advance()
			call := &Call{Pos: d.Pos, Name: ty.Name}
			for !p.at(")") {
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if !p.accept(",") {
					break
				}
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
			d.Init = call
		}
		return &DeclStmt{Decl: d}, nil
	}
	x, err := p.expr()
	if err != nil {
		return nil, err
	}
	return &ExprStmt{Pos: x.exprPos(), X: x}, nil
}

// --- expressions -----------------------------------------------------------

var binaryPrec = map[string]int{
	"||": 1, "&&": 2,
	"==": 3, "!=": 3,
	"<": 4, ">": 4, "<=": 4, ">=": 4, "<<": 4, ">>": 4,
	"+": 5, "-": 5,
	"*": 6, "/": 6, "%": 6,
}

func (p *parser) expr() (Expr, error) { return p.assignment() }

func (p *parser) assignment() (Expr, error) {
	l, err := p.binary(1)
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"=", "+=", "-=", "*=", "/="} {
		if p.at(op) {
			t := p.advance()
			r, err := p.assignment()
			if err != nil {
				return nil, err
			}
			return &Assign{Pos: p.posOf(t), Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) binary(minPrec int) (Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TokPunct {
			break
		}
		prec, ok := binaryPrec[t.Text]
		if !ok || prec < minPrec {
			break
		}
		p.advance()
		r, err := p.binary(prec + 1)
		if err != nil {
			return nil, err
		}
		l = &Binary{Pos: p.posOf(t), Op: t.Text, L: l, R: r}
	}
	return l, nil
}

func (p *parser) unary() (Expr, error) {
	t := p.cur()
	if t.Kind == TokPunct {
		switch t.Text {
		case "&", "*", "-", "!", "++", "--":
			p.advance()
			x, err := p.unary()
			if err != nil {
				return nil, err
			}
			return &Unary{Pos: p.posOf(t), Op: t.Text, X: x}, nil
		}
	}
	return p.postfix()
}

func (p *parser) postfix() (Expr, error) {
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		switch {
		case p.at("."):
			p.advance()
			name := p.cur()
			if name.Kind != TokIdent {
				return nil, p.errf("expected member name")
			}
			p.advance()
			if p.at("(") {
				args, err := p.callArgs()
				if err != nil {
					return nil, err
				}
				x = &Call{Pos: p.posOf(t), Recv: x, Name: name.Text, Args: args}
			} else {
				x = &Member{Pos: p.posOf(t), X: x, Op: ".", Name: name.Text}
			}
		case p.at("->"):
			p.advance()
			name := p.cur()
			if name.Kind != TokIdent {
				return nil, p.errf("expected member name")
			}
			p.advance()
			if p.at("(") {
				args, err := p.callArgs()
				if err != nil {
					return nil, err
				}
				x = &Call{Pos: p.posOf(t), Recv: x, Name: name.Text, Args: args}
			} else {
				x = &Member{Pos: p.posOf(t), X: x, Op: "->", Name: name.Text}
			}
		case p.at("["):
			p.advance()
			i, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect("]"); err != nil {
				return nil, err
			}
			x = &Index{Pos: p.posOf(t), X: x, I: i}
		case p.at("++"), p.at("--"):
			op := p.advance()
			x = &Unary{Pos: p.posOf(op), Op: "post" + op.Text, X: x}
		default:
			return x, nil
		}
	}
}

func (p *parser) callArgs() ([]Expr, error) {
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	var args []Expr
	for !p.at(")") {
		a, err := p.expr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if !p.accept(",") {
			break
		}
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	return args, nil
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokNumber:
		p.advance()
		n := &Number{Pos: p.posOf(t), Text: t.Text}
		if strings.ContainsAny(t.Text, ".") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errf("bad float literal %q", t.Text)
			}
			n.IsFloat, n.Float = true, f
		} else {
			v, err := strconv.ParseInt(t.Text, 0, 64)
			if err != nil {
				// character literal like 'a' arrives as Number text
				if len(t.Text) >= 1 {
					v = int64(t.Text[0])
				} else {
					return nil, p.errf("bad literal %q", t.Text)
				}
			}
			n.Val = v
		}
		return n, nil
	case t.Kind == TokString:
		p.advance()
		return &StringLit{Pos: p.posOf(t), Val: t.Text}, nil
	case p.at("("):
		p.advance()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		return x, nil
	case p.at("new"):
		return p.newExpr()
	case p.at("sizeof"):
		p.advance()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		ty, err := p.typeName()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		return &Sizeof{Pos: p.posOf(t), Type: ty}, nil
	case p.at("true"), p.at("false"):
		p.advance()
		v := int64(0)
		if t.Text == "true" {
			v = 1
		}
		return &Number{Pos: p.posOf(t), Text: t.Text, Val: v}, nil
	case t.Kind == TokIdent:
		p.advance()
		// Plain calls and constructor-call expressions `Student(...)`
		// parse identically.
		if p.at("(") {
			args, err := p.callArgs()
			if err != nil {
				return nil, err
			}
			return &Call{Pos: p.posOf(t), Name: t.Text, Args: args}, nil
		}
		return &Ident{Pos: p.posOf(t), Name: t.Text}, nil
	default:
		return nil, p.errf("unexpected token %s", t)
	}
}

// newExpr parses `new [(place)] Type [\[len\] | (args)]`.
func (p *parser) newExpr() (Expr, error) {
	kw := p.advance() // new
	n := &New{Pos: p.posOf(kw)}
	if p.at("(") {
		// Could be placement `new (addr) T` — it always is in this subset,
		// since `new (T)` is not supported.
		p.advance()
		place, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		n.Placement = place
	}
	ty, err := p.typeName()
	if err != nil {
		return nil, err
	}
	n.Type = ty
	switch {
	case p.at("["):
		p.advance()
		ln, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("]"); err != nil {
			return nil, err
		}
		n.ArrayLen = ln
	case p.at("("):
		args, err := p.callArgs()
		if err != nil {
			return nil, err
		}
		n.CtorArgs = args
	}
	return n, nil
}

// --- token skipping helpers -------------------------------------------------

func (p *parser) skipParens() error {
	if _, err := p.expect("("); err != nil {
		return err
	}
	depth := 1
	for depth > 0 {
		t := p.advance()
		switch {
		case t.Kind == TokEOF:
			return p.errf("unterminated parentheses")
		case t.Kind == TokPunct && t.Text == "(":
			depth++
		case t.Kind == TokPunct && t.Text == ")":
			depth--
		}
	}
	return nil
}

func (p *parser) skipBraces() error {
	if _, err := p.expect("{"); err != nil {
		return err
	}
	depth := 1
	for depth > 0 {
		t := p.advance()
		switch {
		case t.Kind == TokEOF:
			return p.errf("unterminated braces")
		case t.Kind == TokPunct && t.Text == "{":
			depth++
		case t.Kind == TokPunct && t.Text == "}":
			depth--
		}
	}
	return nil
}
