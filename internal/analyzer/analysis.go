package analyzer

import (
	"fmt"
	"sort"

	"repro/internal/layout"
)

// Severity grades a diagnostic.
type Severity int

// Severities.
const (
	SevError Severity = iota + 1
	SevWarning
	SevInfo
)

// String returns the conventional lowercase name.
func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	case SevInfo:
		return "info"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Code string
	Sev  Severity
	Pos  Pos
	Msg  string
	// Suggestion is the §5.1 remediation for the finding — the
	// "automatically addressing these vulnerabilities" half of the tool
	// the paper's conclusion describes.
	Suggestion string
}

// String renders "line:col: severity PNxxx: message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s %s: %s", d.Pos, d.Sev, d.Code, d.Msg)
}

// suggestions maps diagnostic codes to their §5.1 remediations.
var suggestions = map[string]string{
	"PN001": "check sizeof() of the placed type against the arena before placing; fall back to non-placement new when it does not fit (§5.1)",
	"PN002": "validate the attacker-influenced length against the pool capacity immediately before the placement (§5.1)",
	"PN003": "pass a lexically identifiable allocation (named object, array, or sized pool) as the placement target so bounds can be established (§5.1)",
	"PN004": "establish the element count before the placement, or use a checked pool that enforces capacity (§5.1)",
	"PN005": "place only the arena's own class or a class derived from it; placement new performs no type checking itself (§2.5)",
	"PN006": "memset() the arena before reusing it for a smaller object so previous contents cannot leak (§5.1)",
	"PN007": "define a placement delete and invoke it before dropping the last pointer to the placed memory (§4.5/§5.1)",
}

// Options configures an analysis run.
type Options struct {
	// Model sets the data model used for sizeof arithmetic; the zero
	// value selects layout.ILP32i386, matching the simulated testbed.
	Model layout.Model
}

// Result is the output of Analyze.
type Result struct {
	Prog  *Program
	Diags []Diagnostic

	toks []Token // the lexed source, for Baseline
}

// Codes returns the distinct diagnostic codes present, sorted.
func (r *Result) Codes() []string {
	set := map[string]bool{}
	for _, d := range r.Diags {
		set[d.Code] = true
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// HasCode reports whether any diagnostic carries the code.
func (r *Result) HasCode(code string) bool {
	for _, d := range r.Diags {
		if d.Code == code {
			return true
		}
	}
	return false
}

// Analyze parses and checks a mini-C++ translation unit.
func Analyze(src string, opts Options) (*Result, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	prog, err := parseTokens(toks)
	if err != nil {
		return nil, err
	}
	model := opts.Model
	if model.PtrSize == 0 {
		model = layout.ILP32i386
	}
	sm, err := buildSema(prog, model)
	if err != nil {
		return nil, err
	}
	a := &checker{sema: sm, prog: prog}
	a.run()
	sort.SliceStable(a.diags, func(i, j int) bool {
		if a.diags[i].Pos.Line != a.diags[j].Pos.Line {
			return a.diags[i].Pos.Line < a.diags[j].Pos.Line
		}
		return a.diags[i].Pos.Col < a.diags[j].Pos.Col
	})
	// Deduplicate: the double analysis of loop bodies (loop-carried
	// facts) re-emits identical diagnostics.
	var diags []Diagnostic
	for _, d := range a.diags {
		if n := len(diags); n > 0 && diags[n-1] == d {
			continue
		}
		diags = append(diags, d)
	}
	return &Result{Prog: prog, Diags: diags, toks: toks}, nil
}

// taintSources are callee names whose return value is attacker-influenced
// (remote objects, network reads, environment).
var taintSources = map[string]bool{
	"recv": true, "getNames": true, "read_int": true, "atoi": true,
	"getenv": true, "receive": true, "getn": true,
}

// dirtySinks are calls whose first argument receives external data,
// marking the arena "dirty" for the PN006 information-leak check.
var dirtySinks = map[string]bool{
	"strncpy": true, "strcpy": true, "memcpy": true, "read": true,
	"fread": true, "read_file": true, "load": true, "mmap_file": true,
}

// varInfo is the checker's per-variable state.
type varInfo struct {
	decl *VarDecl
	// constVal holds the current statically known value, when known.
	constVal   int64
	constKnown bool
	// tainted marks attacker influence on the value.
	tainted bool
	// pointee records what a pointer currently points at, when resolvable.
	pointee *arena
	// placements counts live placement-new results stored in this pointer
	// without an intervening placement_delete (PN007).
	livePlacements int
}

// arena is a resolved placement destination.
type arena struct {
	label string
	size  uint64
	known bool
	class *layout.Class // non-nil when the arena is a class object
	// dirty marks that the arena held external/previous data (PN006).
	dirty bool
	// dirtyBytes is how much of the arena is known to be occupied.
	dirtyBytes uint64
}

type checker struct {
	sema  *sema
	prog  *Program
	diags []Diagnostic

	globals map[string]*varInfo
	arenas  map[string]*arena // per named variable that can serve as an arena
	locals  map[string]*varInfo
	// summaries carries the interprocedural parameter facts (see
	// interproc.go).
	summaries map[string]*funcSummary
}

func (c *checker) report(code string, sev Severity, pos Pos, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{
		Code: code, Sev: sev, Pos: pos,
		Msg:        fmt.Sprintf(format, args...),
		Suggestion: suggestions[code],
	})
}

func (c *checker) run() {
	c.summaries = make(map[string]*funcSummary, len(c.prog.Funcs))
	for _, fn := range c.prog.Funcs {
		c.summaries[fn.Name] = newSummary(fn)
	}
	collectCalledness(c.prog, c.summaries)

	// Fixpoint over the call graph: each pass re-analyses every function
	// under the current parameter facts and records new facts at call
	// sites. Facts move monotonically, so the loop terminates; the bound
	// is a backstop.
	maxPasses := 2*len(c.prog.Funcs) + 2
	for pass := 0; pass < maxPasses; pass++ {
		snapshot := cloneSummaries(c.summaries)
		c.diags = nil
		c.globals = make(map[string]*varInfo)
		c.arenas = make(map[string]*arena)
		for _, g := range c.prog.Globals {
			c.globals[g.Name] = &varInfo{decl: g}
			c.noteArenaFor(g)
		}
		for _, fn := range c.prog.Funcs {
			c.checkFunc(fn)
		}
		if equalSummaries(snapshot, c.summaries) {
			break
		}
	}
}

// noteArenaFor registers a variable as a potential placement arena.
func (c *checker) noteArenaFor(d *VarDecl) {
	a := &arena{label: d.Name}
	if !d.Type.IsPtr() {
		if n, ok := c.sema.sizeOfSrcType(d.Type); ok {
			a.size, a.known = n, true
		}
		if cls, ok := c.sema.classes[d.Type.Name]; ok && d.Type.ArrayLen == nil {
			a.class = cls
		}
	}
	c.arenas[d.Name] = a
}

func (c *checker) lookupVar(name string) *varInfo {
	if v, ok := c.locals[name]; ok {
		return v
	}
	if v, ok := c.globals[name]; ok {
		return v
	}
	return nil
}

func (c *checker) checkFunc(fn *FuncDecl) {
	c.locals = make(map[string]*varInfo)
	sum := c.summaries[fn.Name]
	for i, prm := range fn.Params {
		vi := &varInfo{decl: prm}
		switch {
		case sum == nil || !sum.called:
			// Never called inside the unit: an entry point reachable from
			// outside, so its parameters are attacker-influenced.
			vi.tainted = true
		default:
			vi.tainted = sum.taint[i]
			if v, ok := sum.consts[i].known(); ok {
				vi.constVal, vi.constKnown = v, true
			}
		}
		c.locals[prm.Name] = vi
		c.noteArenaFor(prm)
	}
	c.checkBlock(fn.Body)
	// PN007: placements still live in pointers that were overwritten.
	for name, vi := range c.locals {
		if vi.livePlacements > 1 {
			c.report("PN007", SevWarning, vi.decl.Pos,
				"pointer %s received %d placement-new results without placement delete; earlier placements leak",
				name, vi.livePlacements)
		}
	}
}

func (c *checker) checkBlock(b *Block) {
	for _, s := range b.Stmts {
		c.checkStmt(s)
	}
}

func (c *checker) checkStmt(s Stmt) {
	switch st := s.(type) {
	case *Block:
		c.checkBlock(st)
	case *DeclStmt:
		d := st.Decl
		vi := &varInfo{decl: d}
		if d.Init != nil {
			c.checkExpr(d.Init)
			if n, ok := c.evalConst(d.Init); ok {
				vi.constVal, vi.constKnown = n, true
			}
			vi.tainted = c.isTainted(d.Init)
			if d.Type.IsPtr() {
				vi.pointee = c.pointeeOf(d.Init)
			}
			if _, ok := d.Init.(*New); ok {
				vi.livePlacements++
			}
		}
		c.locals[d.Name] = vi
		c.noteArenaFor(d)
	case *ExprStmt:
		if st.X != nil {
			c.checkExpr(st.X)
		}
	case *IfStmt:
		c.checkExpr(st.Cond)
		// The §5.1 correct-coding pattern guards a placement with a
		// statically decidable sizeof comparison; a branch that is dead
		// under constant folding is not analysed (no false PN001 on
		// `if (sizeof(B) <= sizeof(A)) { new (&a) B(); }`).
		if v, ok := c.evalConst(st.Cond); ok {
			if v != 0 {
				c.checkStmt(st.Then)
			} else if st.Else != nil {
				c.checkStmt(st.Else)
			}
			return
		}
		c.checkStmt(st.Then)
		if st.Else != nil {
			c.checkStmt(st.Else)
		}
	case *WhileStmt:
		c.checkExpr(st.Cond)
		// Widen loop-carried variables first: a variable reassigned
		// inside the body takes a different value on every iteration, so
		// no single compile-time constant is sound at any site in the
		// body — `new (&pool[i]) C()` with i advancing per iteration must
		// resolve as unknown (PN003), not as the first iteration's
		// offset.
		for _, name := range assignedVars(st.Body) {
			if vi := c.lookupVar(name); vi != nil {
				vi.constKnown = false
			}
		}
		// Loop bodies are analysed twice so loop-carried facts (a value
		// tainted late in iteration k reaching a sink early in k+1) are
		// observed. Diagnostics are deduplicated afterwards.
		c.checkStmt(st.Body)
		c.checkStmt(st.Body)
	case *ForStmt:
		if st.Init != nil {
			c.checkStmt(st.Init)
		}
		if st.Cond != nil {
			c.checkExpr(st.Cond)
		}
		if st.Post != nil {
			c.checkExpr(st.Post)
		}
		c.checkStmt(st.Body)
		c.checkStmt(st.Body)
		if st.Post != nil {
			c.checkExpr(st.Post)
		}
	case *ReturnStmt:
		if st.X != nil {
			c.checkExpr(st.X)
		}
	}
}

// assignedVars collects the names assigned anywhere in a statement
// subtree — the loop-carried candidates a while body must widen.
func assignedVars(s Stmt) []string {
	var out []string
	var walkExpr func(e Expr)
	walkExpr = func(e Expr) {
		if a, ok := e.(*Assign); ok {
			if id, ok := a.L.(*Ident); ok {
				out = append(out, id.Name)
			}
			walkExpr(a.R)
		}
	}
	var walk func(s Stmt)
	walk = func(s Stmt) {
		switch st := s.(type) {
		case *Block:
			for _, sub := range st.Stmts {
				walk(sub)
			}
		case *ExprStmt:
			if st.X != nil {
				walkExpr(st.X)
			}
		case *IfStmt:
			walk(st.Then)
			if st.Else != nil {
				walk(st.Else)
			}
		case *WhileStmt:
			walk(st.Body)
		case *ForStmt:
			if st.Init != nil {
				walk(st.Init)
			}
			if st.Post != nil {
				walkExpr(st.Post)
			}
			walk(st.Body)
		}
	}
	walk(s)
	return out
}

// checkExpr walks an expression, updating state and reporting placements.
func (c *checker) checkExpr(e Expr) {
	switch x := e.(type) {
	case *Assign:
		c.checkExpr(x.R)
		// Update LHS variable state.
		if id, ok := x.L.(*Ident); ok {
			if vi := c.lookupVar(id.Name); vi != nil {
				if n, ok := c.evalConst(x.R); ok && x.Op == "=" {
					vi.constVal, vi.constKnown = n, true
				} else {
					vi.constKnown = false
				}
				vi.tainted = c.isTainted(x.R)
				if vi.decl.Type.IsPtr() && x.Op == "=" {
					vi.pointee = c.pointeeOf(x.R)
					if _, ok := x.R.(*New); ok {
						vi.livePlacements++
					}
					if n, ok := x.R.(*Number); ok && n.Val == 0 && vi.livePlacements > 0 {
						// p = NULL while holding a live allocation: the
						// handle to the placed memory is lost (Listing 23).
						c.report("PN007", SevWarning, x.Pos,
							"pointer %s nulled while holding a live allocation; memory leaks", id.Name)
						vi.livePlacements = 0
					}
				}
			}
		} else {
			c.checkExpr(x.L)
			c.markWriteTo(x.L)
		}
	case *Binary:
		if x.Op == ">>" && isCin(x) {
			// cin >> target: every extraction target becomes tainted.
			c.taintCinTargets(x)
			return
		}
		c.checkExpr(x.L)
		c.checkExpr(x.R)
	case *Unary:
		c.checkExpr(x.X)
	case *Member:
		c.checkExpr(x.X)
	case *Index:
		c.checkExpr(x.X)
		c.checkExpr(x.I)
	case *Call:
		c.checkCall(x)
	case *New:
		c.checkNew(x)
	}
}

// isCin reports whether the leftmost operand of a >> chain is `cin`.
func isCin(b *Binary) bool {
	l := b.L
	for {
		switch x := l.(type) {
		case *Binary:
			if x.Op != ">>" {
				return false
			}
			l = x.L
		case *Ident:
			return x.Name == "cin"
		default:
			return false
		}
	}
}

// taintCinTargets marks every >> extraction target tainted.
func (c *checker) taintCinTargets(b *Binary) {
	c.taintLValue(b.R)
	if lb, ok := b.L.(*Binary); ok && lb.Op == ">>" {
		c.taintCinTargets(lb)
	}
}

func (c *checker) taintLValue(e Expr) {
	switch x := e.(type) {
	case *Ident:
		if vi := c.lookupVar(x.Name); vi != nil {
			vi.tainted = true
			vi.constKnown = false
		}
	case *Member:
		// Tainting a member taints the base object conservatively, and
		// the write makes its storage dirty for the PN006 check.
		c.taintLValue(rootOf(x))
		c.markWriteTo(x)
	case *Index:
		c.taintLValue(rootOf(x))
		c.markWriteTo(x)
	case *Unary:
		c.taintLValue(x.X)
	}
}

// markWriteTo records that the storage behind an lvalue now holds data,
// for the §4.3 reuse-without-sanitization check.
func (c *checker) markWriteTo(e Expr) {
	root, ok := rootOf(e).(*Ident)
	if !ok {
		return
	}
	var ar *arena
	if vi := c.lookupVar(root.Name); vi != nil && vi.decl.Type.IsPtr() {
		ar = vi.pointee
	} else {
		ar = c.arenas[root.Name]
	}
	if ar != nil && ar.known {
		ar.dirty = true
		ar.dirtyBytes = ar.size
	}
}

// rootOf returns the base identifier expression of a member/index chain.
func rootOf(e Expr) Expr {
	for {
		switch x := e.(type) {
		case *Member:
			e = x.X
		case *Index:
			e = x.X
		case *Unary:
			e = x.X
		default:
			return e
		}
	}
}

func (c *checker) checkCall(x *Call) {
	for _, a := range x.Args {
		c.checkExpr(a)
	}
	if x.Recv != nil {
		c.checkExpr(x.Recv)
		return
	}
	c.recordCallFacts(x)
	switch {
	case x.Name == "memset" && len(x.Args) >= 1:
		if ar := c.arenaOfExpr(x.Args[0]); ar != nil {
			ar.dirty = false
			ar.dirtyBytes = 0
		}
	case dirtySinks[x.Name] && len(x.Args) >= 1:
		if ar := c.arenaOfExpr(x.Args[0]); ar != nil {
			ar.dirty = true
			ar.dirtyBytes = ar.size
		}
	case (x.Name == "placement_delete" || x.Name == "delete") && len(x.Args) == 1:
		if id, ok := x.Args[0].(*Ident); ok {
			if vi := c.lookupVar(id.Name); vi != nil && vi.livePlacements > 0 {
				vi.livePlacements--
			}
		}
	}
}

// arenaOfExpr resolves the arena a placement (or sink) expression names.
func (c *checker) arenaOfExpr(e Expr) *arena {
	switch x := e.(type) {
	case *Ident:
		vi := c.lookupVar(x.Name)
		if vi != nil && vi.decl.Type.IsPtr() {
			if vi.pointee != nil {
				return vi.pointee
			}
			return nil
		}
		return c.arenas[x.Name]
	case *Unary:
		if x.Op == "&" {
			if id, ok := x.X.(*Ident); ok {
				return c.arenas[id.Name]
			}
			if m, ok := x.X.(*Member); ok {
				return c.memberArena(m)
			}
			if ix, ok := x.X.(*Index); ok {
				return c.indexedArena(ix)
			}
		}
		return nil
	case *Member:
		return c.memberArena(x)
	default:
		return nil
	}
}

// indexedArena resolves `&arr[i]` placements to the arena remaining past
// the element: the mid-pool placement §5.1 discusses ("placement new can
// be used to allocate chunks of this arena to objects/arrays"). A
// non-constant or tainted index leaves the arena unresolvable.
func (c *checker) indexedArena(ix *Index) *arena {
	id, ok := ix.X.(*Ident)
	if !ok {
		return nil
	}
	base := c.arenas[id.Name]
	if base == nil || !base.known {
		return nil
	}
	vi := c.lookupVar(id.Name)
	if vi == nil || vi.decl.Type.ArrayLen == nil {
		return nil
	}
	i, ok := c.evalConst(ix.I)
	if !ok || i < 0 || c.isTainted(ix.I) {
		return nil
	}
	elem, eok := c.sema.sizeOfSrcType(SrcType{Name: vi.decl.Type.Name, Stars: vi.decl.Type.Stars})
	if !eok {
		return nil
	}
	off := uint64(i) * elem
	if off > base.size {
		return &arena{label: fmt.Sprintf("%s[%d]", id.Name, i), known: true, size: 0}
	}
	a := &arena{
		label: fmt.Sprintf("%s[%d...]", id.Name, i),
		size:  base.size - off,
		known: true,
		dirty: base.dirty,
	}
	if base.dirtyBytes > off {
		a.dirtyBytes = base.dirtyBytes - off
	}
	return a
}

// memberArena resolves &obj.field arenas to the member's own size.
func (c *checker) memberArena(m *Member) *arena {
	rootID, ok := rootOf(m).(*Ident)
	if !ok {
		return nil
	}
	vi := c.lookupVar(rootID.Name)
	if vi == nil {
		return nil
	}
	cls, ok := c.sema.classes[vi.decl.Type.Name]
	if !ok {
		return nil
	}
	l, err := layout.Of(cls, c.sema.model)
	if err != nil {
		return nil
	}
	f, err := l.FieldOffset(m.Name)
	if err != nil {
		return nil
	}
	a := &arena{label: rootID.Name + "." + m.Name, size: f.Type.Size(c.sema.model), known: true}
	if fc, ok := f.Type.(*layout.Class); ok {
		a.class = fc
	}
	return a
}

// pointeeOf tracks simple pointer targets: &x, array names, placement and
// heap news.
func (c *checker) pointeeOf(e Expr) *arena {
	switch x := e.(type) {
	case *Unary:
		if x.Op == "&" {
			if id, ok := x.X.(*Ident); ok {
				return c.arenas[id.Name]
			}
		}
	case *Ident:
		// Array name decays to a pointer to the array.
		if ar, ok := c.arenas[x.Name]; ok {
			return ar
		}
	case *New:
		if x.ArrayLen != nil {
			if n, ok := c.evalConst(x.ArrayLen); ok {
				if es, esok := c.sema.sizeOfSrcType(SrcType{Name: x.Type.Name, Stars: x.Type.Stars}); esok {
					return &arena{label: "new " + x.Type.Name + "[]", size: uint64(n) * es, known: true}
				}
			}
			return &arena{label: "new " + x.Type.Name + "[]"}
		}
		if n, ok := c.sema.sizeOfSrcType(x.Type); ok {
			a := &arena{label: "new " + x.Type.Name, size: n, known: true}
			if cls, ok := c.sema.classes[x.Type.Name]; ok {
				a.class = cls
			}
			return a
		}
	}
	return nil
}

// evalConst folds constants, consulting tracked variable values.
func (c *checker) evalConst(e Expr) (int64, bool) {
	if v, ok := evalConstPure(e, c.sema); ok {
		return v, true
	}
	switch x := e.(type) {
	case *Ident:
		if vi := c.lookupVar(x.Name); vi != nil && vi.constKnown && !vi.tainted {
			return vi.constVal, true
		}
	case *Binary:
		l, lok := c.evalConst(x.L)
		r, rok := c.evalConst(x.R)
		if lok && rok {
			switch x.Op {
			case "+":
				return l + r, true
			case "-":
				return l - r, true
			case "*":
				return l * r, true
			case "/":
				if r != 0 {
					return l / r, true
				}
			case "<":
				return boolInt(l < r), true
			case "<=":
				return boolInt(l <= r), true
			case ">":
				return boolInt(l > r), true
			case ">=":
				return boolInt(l >= r), true
			case "==":
				return boolInt(l == r), true
			case "!=":
				return boolInt(l != r), true
			}
		}
	}
	return 0, false
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// isTainted reports attacker influence over an expression's value.
func (c *checker) isTainted(e Expr) bool {
	switch x := e.(type) {
	case *Ident:
		vi := c.lookupVar(x.Name)
		return vi != nil && vi.tainted
	case *Binary:
		return c.isTainted(x.L) || c.isTainted(x.R)
	case *Unary:
		return c.isTainted(x.X)
	case *Member, *Index:
		if id, ok := rootOf(x).(*Ident); ok {
			vi := c.lookupVar(id.Name)
			return vi != nil && vi.tainted
		}
		return false
	case *Call:
		if taintSources[x.Name] {
			return true
		}
		if x.Recv != nil && taintSources[x.Name] {
			return true
		}
		for _, a := range x.Args {
			if c.isTainted(a) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// checkNew is the heart of the tool: every placement-new site is verified
// against what can be known statically (§5.1).
func (c *checker) checkNew(n *New) {
	if n.Placement != nil {
		c.checkExpr(n.Placement)
	}
	for _, a := range n.CtorArgs {
		c.checkExpr(a)
	}
	if n.ArrayLen != nil {
		c.checkExpr(n.ArrayLen)
	}
	if n.Placement == nil {
		return // ordinary new: out of scope
	}

	ar := c.arenaOfExpr(n.Placement)

	// Placed size.
	var placedSize uint64
	placedKnown := false
	var placedClass *layout.Class
	if n.ArrayLen != nil {
		elemSize, eok := c.sema.sizeOfSrcType(SrcType{Name: n.Type.Name, Stars: n.Type.Stars})
		if ln, ok := c.evalConst(n.ArrayLen); ok && eok && ln >= 0 {
			placedSize, placedKnown = uint64(ln)*elemSize, true
		}
		if c.isTainted(n.ArrayLen) {
			c.report("PN002", SevError, n.Pos,
				"placement array-new length is attacker-influenced (tainted); bounds cannot be trusted")
		} else if !placedKnown {
			c.report("PN004", SevWarning, n.Pos,
				"placement array-new length is not statically known")
		}
	} else {
		placedSize, placedKnown = c.sema.sizeOfSrcType(n.Type)
		placedClass = c.sema.classes[n.Type.Name]
	}

	if ar == nil {
		c.report("PN003", SevInfo, n.Pos,
			"placement destination cannot be resolved to an allocation; bounds are unverifiable")
		return
	}

	if ar.known && placedKnown && placedSize > ar.size {
		what := n.Type.Name
		if n.ArrayLen != nil {
			what += "[]"
		}
		c.report("PN001", SevError, n.Pos,
			"placement of %s (%d bytes) overflows %s (%d bytes)", what, placedSize, ar.label, ar.size)
	}

	// Placing a class over a related class (either direction) is the
	// intended reuse pattern; only unrelated classes draw PN005.
	if placedClass != nil && ar.class != nil &&
		!placedClass.SameOrDerivesFrom(ar.class) && !ar.class.SameOrDerivesFrom(placedClass) {
		c.report("PN005", SevWarning, n.Pos,
			"placing %s into an arena typed %s: classes are unrelated", placedClass.Name(), ar.class.Name())
	}

	// PN006: reuse of a dirty arena by a smaller placement leaks the tail.
	if ar.dirty && placedKnown && ar.known && placedSize < ar.size {
		c.report("PN006", SevWarning, n.Pos,
			"%s still holds %d bytes of previous data; placing %d bytes leaves %d bytes unsanitized",
			ar.label, ar.dirtyBytes, placedSize, ar.size-placedSize)
	}
	// A placement marks the arena as holding data for subsequent reuse.
	if ar.known {
		if placedKnown && placedSize > ar.dirtyBytes {
			ar.dirtyBytes = placedSize
			if ar.dirtyBytes > ar.size {
				ar.dirtyBytes = ar.size
			}
		}
		ar.dirty = true
	}
}
