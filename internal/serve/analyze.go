package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/analyzer"
	"repro/internal/foundry"
)

// MaxAnalyzeBatch bounds one /analyze request: explicit sources plus
// generated foundry programs together.
const MaxAnalyzeBatch = 256

// AnalyzeRequest is the POST /analyze body. Programs are analysed as
// given; a Foundry block additionally generates (and optionally fully
// triages) a seeded corpus server-side, so a client can reproduce any
// CI finding from just (seed, count).
type AnalyzeRequest struct {
	Programs []AnalyzeProgram `json:"programs,omitempty"`
	Foundry  *AnalyzeFoundry  `json:"foundry,omitempty"`
}

// AnalyzeProgram is one source to analyse.
type AnalyzeProgram struct {
	Name string `json:"name"`
	Src  string `json:"src"`
}

// AnalyzeFoundry asks the server to generate programs [0, count) of
// the seeded foundry corpus and analyse each; with Triage set, each
// program is also run through the full four-plane differential triage.
type AnalyzeFoundry struct {
	Seed   int64 `json:"seed"`
	Count  int   `json:"count"`
	Triage bool  `json:"triage,omitempty"`
}

// AnalysisFinding is one diagnostic in an /analyze item — the
// AnalysisResult shape shared by the static and baseline planes.
type AnalysisFinding struct {
	Plane      string `json:"plane"` // static or baseline
	Severity   string `json:"severity,omitempty"`
	Code       string `json:"code,omitempty"` // PNxxx (static only)
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Message    string `json:"message"`
	Suggestion string `json:"suggestion,omitempty"`
}

// AnalyzeItem is one program's report, in request order (explicit
// programs first, then foundry programs). A program that fails to
// parse carries its error and per-item status code without failing its
// siblings.
type AnalyzeItem struct {
	Name     string                 `json:"name"`
	Code     int                    `json:"code"`
	Error    string                 `json:"error,omitempty"`
	Findings []AnalysisFinding      `json:"findings,omitempty"`
	Triage   *foundry.ProgramTriage `json:"triage,omitempty"`
}

// AnalyzeResponse is the POST /analyze success envelope.
type AnalyzeResponse struct {
	Results []AnalyzeItem `json:"results"`
	OK      int           `json:"ok"`
	Failed  int           `json:"failed"`
	ServeNS int64         `json:"serve_ns"`
}

// analyzeOne runs the static pass and the baseline scanner over one
// source, lexing it once, and renders the findings in report shape.
func analyzeOne(name, src string) AnalyzeItem {
	res, err := analyzer.Analyze(src, analyzer.Options{Model: foundry.Model})
	if err != nil {
		return AnalyzeItem{Name: name, Code: http.StatusBadRequest, Error: "analyze: " + err.Error()}
	}
	bf := res.Baseline()
	item := AnalyzeItem{Name: name, Code: http.StatusOK}
	if n := len(res.Diags) + len(bf); n > 0 {
		item.Findings = make([]AnalysisFinding, 0, n)
	}
	for _, d := range res.Diags {
		item.Findings = append(item.Findings, AnalysisFinding{
			Plane: "static", Severity: d.Sev.String(), Code: d.Code,
			Line: d.Pos.Line, Col: d.Pos.Col,
			Message: d.Msg, Suggestion: d.Suggestion,
		})
	}
	for _, f := range bf {
		item.Findings = append(item.Findings, AnalysisFinding{
			Plane: "baseline",
			Line:  f.Pos.Line, Col: f.Pos.Col,
			Message: "risky call to " + f.Func + ": " + f.Msg,
		})
	}
	return item
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, drainingResponse(r))
		return
	}
	if r.Method != http.MethodPost {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: fmt.Sprintf("method %s not allowed on /analyze (POST a JSON body)", r.Method),
			Code:  http.StatusBadRequest,
		})
		return
	}
	req, err := decodeAnalyzeRequest(r)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: "invalid JSON body: " + err.Error(), Code: http.StatusBadRequest})
		return
	}
	total := len(req.Programs)
	if req.Foundry != nil {
		if req.Foundry.Count <= 0 {
			WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: "foundry.count must be positive", Code: http.StatusBadRequest})
			return
		}
		total += req.Foundry.Count
	}
	if total == 0 {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: "empty batch: provide programs and/or a foundry block", Code: http.StatusBadRequest})
		return
	}
	if total > MaxAnalyzeBatch {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: fmt.Sprintf("batch of %d exceeds limit %d", total, MaxAnalyzeBatch),
			Code:  http.StatusBadRequest,
		})
		return
	}

	start := s.now()
	resp := AnalyzeResponse{}
	add := func(item AnalyzeItem) {
		resp.Results = append(resp.Results, item)
		if item.Code == http.StatusOK {
			resp.OK++
		} else {
			resp.Failed++
		}
	}
	for i, p := range req.Programs {
		name := p.Name
		if name == "" {
			name = fmt.Sprintf("prog-%d", i)
		}
		add(analyzeOne(name, p.Src))
	}
	if req.Foundry != nil {
		for i := 0; i < req.Foundry.Count; i++ {
			g, err := foundry.Generate(req.Foundry.Seed, i)
			if err != nil {
				add(AnalyzeItem{Name: fmt.Sprintf("foundry-%d-%d", req.Foundry.Seed, i),
					Code: http.StatusInternalServerError, Error: err.Error()})
				continue
			}
			item := analyzeOne(g.Labels.Name, g.Src)
			if req.Foundry.Triage && item.Code == http.StatusOK {
				tr, err := foundry.TriageProgram(g)
				if err != nil {
					item.Code, item.Error = http.StatusInternalServerError, "triage: "+err.Error()
				} else {
					item.Triage = tr
				}
			}
			add(item)
		}
	}
	resp.ServeNS = s.now().Sub(start).Nanoseconds()
	WriteJSON(w, http.StatusOK, resp)
}

// maxAnalyzeBody bounds an /analyze body: a longer one is read up to
// the bound and decoded as if it ended there.
const maxAnalyzeBody = 8 << 20

// decodeAnalyzeRequest reads an /analyze body to its end, or to
// maxAnalyzeBody, and decodes it. The buffer grows only with the bytes
// received: a declared Content-Length costs a client nothing to send,
// so it must not size an allocation. The documented shape is parsed in
// one pass by parseAnalyzeRequest; any body it declines, and any body
// whose read failed, goes to encoding/json over the same bytes, with
// the read error replayed after them, so every error text is
// encoding/json's.
func decodeAnalyzeRequest(r *http.Request) (AnalyzeRequest, error) {
	var buf bytes.Buffer
	_, rerr := buf.ReadFrom(io.LimitReader(r.Body, maxAnalyzeBody))
	if rerr == nil {
		if req, ok := parseAnalyzeRequest(buf.Bytes()); ok {
			return req, nil
		}
	}
	var src io.Reader = bytes.NewReader(buf.Bytes())
	if rerr != nil {
		src = io.MultiReader(src, errReader{rerr})
	}
	var req AnalyzeRequest
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// parseAnalyzeRequest decodes body in one pass when it holds the
// documented shape, {"programs":[{"name":…,"src":…}]}, written so that
// encoding/json would decode it to the same request: every key spelled
// exactly and given once, no null, and strings of valid UTF-8 with no
// control byte and no lone surrogate escape. It reports false for
// anything else, a foundry block included, and leaves that body to
// encoding/json. Bytes after the closing brace are ignored, as
// json.Decoder ignores them.
func parseAnalyzeRequest(body []byte) (AnalyzeRequest, bool) {
	// Every string is decoded into one buffer, which becomes one string
	// that the fields are slices of. Decoding never lengthens a string,
	// so the buffer never grows.
	p := requestParser{b: body, text: make([]byte, 0, len(body))}
	type span struct{ start, end int }
	var progs [][2]span // name and src of each program
	seen := false
	if !p.consume('{') {
		return AnalyzeRequest{}, false
	}
	for more := !p.consume('}'); more; more = p.next('}') {
		if seen || !p.key("programs") || !p.consume('[') {
			return AnalyzeRequest{}, false
		}
		seen = true
		for more := !p.consume(']'); more; more = p.next(']') {
			var prog [2]span
			var have [2]bool
			if !p.consume('{') {
				return AnalyzeRequest{}, false
			}
			for more := !p.consume('}'); more; more = p.next('}') {
				f := 0
				switch {
				case p.key("name"):
				case p.key("src"):
					f = 1
				default:
					return AnalyzeRequest{}, false
				}
				start, end, ok := p.str()
				if !ok || have[f] {
					return AnalyzeRequest{}, false
				}
				prog[f], have[f] = span{start, end}, true
			}
			progs = append(progs, prog)
		}
	}
	if p.failed {
		return AnalyzeRequest{}, false
	}
	var req AnalyzeRequest
	if seen {
		text := string(p.text)
		req.Programs = make([]AnalyzeProgram, len(progs))
		for i, sp := range progs {
			req.Programs[i] = AnalyzeProgram{
				Name: text[sp[0].start:sp[0].end],
				Src:  text[sp[1].start:sp[1].end],
			}
		}
	}
	return req, true
}

// requestParser is parseAnalyzeRequest's cursor over a body.
type requestParser struct {
	b      []byte
	i      int
	text   []byte // decoded strings, back to back
	failed bool   // next found neither a comma nor the closing byte; sticky
}

// consume skips whitespace and then c, reporting whether c was next.
func (p *requestParser) consume(c byte) bool {
	for ; p.i < len(p.b); p.i++ {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			continue
		case c:
			p.i++
			return true
		}
		return false
	}
	return false
}

// next reports whether another member or element follows: a comma
// does, the closing byte does not, and anything else sets failed.
func (p *requestParser) next(closing byte) bool {
	if p.consume(',') {
		return true
	}
	if !p.consume(closing) {
		p.failed = true
	}
	return false
}

// key consumes the object key name, spelled exactly, and its colon. It
// moves the cursor only when it reports true.
func (p *requestParser) key(name string) bool {
	start := p.i
	if p.consume('"') {
		end := p.i + len(name)
		if end < len(p.b) && string(p.b[p.i:end]) == name && p.b[end] == '"' {
			p.i = end + 1
			if p.consume(':') {
				return true
			}
		}
	}
	p.i = start
	return false
}

// str decodes the JSON string at the cursor onto text and returns its
// bounds there. It refuses what encoding/json would reject or rewrite:
// a control byte, a bad escape, invalid UTF-8 or a lone surrogate.
func (p *requestParser) str() (start, end int, ok bool) {
	if !p.consume('"') {
		return 0, 0, false
	}
	start = len(p.text)
	for {
		j := p.i
		for j < len(p.b) {
			if c := p.b[j]; c < 0x20 || c == '"' || c == '\\' || c >= utf8.RuneSelf {
				break
			}
			j++
		}
		p.text = append(p.text, p.b[p.i:j]...)
		p.i = j
		if p.i >= len(p.b) {
			return 0, 0, false
		}
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return start, len(p.text), true
		case c == '\\':
			if !p.escape() {
				return 0, 0, false
			}
		case c < 0x20:
			return 0, 0, false
		default:
			r, n := utf8.DecodeRune(p.b[p.i:])
			if r == utf8.RuneError && n == 1 {
				return 0, 0, false
			}
			p.text = append(p.text, p.b[p.i:p.i+n]...)
			p.i += n
		}
	}
}

// escape decodes the escape sequence at the cursor onto text. A
// surrogate pair decodes to its rune; a lone surrogate, which
// encoding/json turns into U+FFFD, is refused.
func (p *requestParser) escape() bool {
	if p.i+1 >= len(p.b) {
		return false
	}
	c := p.b[p.i+1]
	switch c {
	case '"', '\\', '/':
	case 'b':
		c = '\b'
	case 'f':
		c = '\f'
	case 'n':
		c = '\n'
	case 'r':
		c = '\r'
	case 't':
		c = '\t'
	case 'u':
		r, ok := p.hex4(p.i + 2)
		if !ok {
			return false
		}
		p.i += 6
		if utf16.IsSurrogate(r) {
			if p.i+1 >= len(p.b) || p.b[p.i] != '\\' || p.b[p.i+1] != 'u' {
				return false
			}
			lo, ok := p.hex4(p.i + 2)
			if r = utf16.DecodeRune(r, lo); !ok || r == utf8.RuneError {
				return false
			}
			p.i += 6
		}
		p.text = utf8.AppendRune(p.text, r)
		return true
	default:
		return false
	}
	p.text = append(p.text, c)
	p.i += 2
	return true
}

// hex4 parses the four hex digits at b[i:].
func (p *requestParser) hex4(i int) (rune, bool) {
	if i+4 > len(p.b) {
		return 0, false
	}
	r, err := strconv.ParseUint(string(p.b[i:i+4]), 16, 16)
	return rune(r), err == nil
}
