package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/analyzer"
	"repro/internal/foundry"
)

func postAnalyze(t *testing.T, url string, body string, wantCode int) AnalyzeResponse {
	t.Helper()
	resp, err := http.Post(url+"/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("POST /analyze = %d, want %d", resp.StatusCode, wantCode)
	}
	var out AnalyzeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	return out
}

const analyzeVulnSrc = `class Student { public: double gpa; int year; int semester; };
class GradStudent : public Student { public: int ssn[3]; };
void addStudent() {
  Student stud;
  GradStudent *st = new (&stud) GradStudent();
}
`

func TestAnalyzeBatch(t *testing.T) {
	_, ts := newTestServer(t)
	body, _ := json.Marshal(AnalyzeRequest{Programs: []AnalyzeProgram{
		{Name: "vuln", Src: analyzeVulnSrc},
		{Name: "classic", Src: "void f() {\n  char dst[4];\n  strcpy(dst, \"AAAAAAAA\");\n}\n"},
	}})
	out := postAnalyze(t, ts.URL, string(body), http.StatusOK)
	if out.OK != 2 || out.Failed != 0 || len(out.Results) != 2 {
		t.Fatalf("response = %+v", out)
	}
	var pn001 bool
	for _, f := range out.Results[0].Findings {
		if f.Plane == "static" && f.Code == "PN001" {
			pn001 = true
			if f.Suggestion == "" || f.Line == 0 {
				t.Errorf("PN001 finding missing suggestion/position: %+v", f)
			}
		}
	}
	if !pn001 {
		t.Errorf("vuln program findings = %+v, want PN001", out.Results[0].Findings)
	}
	var risky bool
	for _, f := range out.Results[1].Findings {
		if f.Plane == "baseline" && strings.Contains(f.Message, "strcpy") {
			risky = true
		}
	}
	if !risky {
		t.Errorf("classic program findings = %+v, want baseline strcpy hit", out.Results[1].Findings)
	}
}

func TestAnalyzeFoundryTriage(t *testing.T) {
	_, ts := newTestServer(t)
	out := postAnalyze(t, ts.URL, `{"foundry":{"seed":42,"count":8,"triage":true}}`, http.StatusOK)
	if out.OK != 8 || len(out.Results) != 8 {
		t.Fatalf("response ok=%d results=%d, want 8", out.OK, len(out.Results))
	}
	for _, item := range out.Results {
		if item.Triage == nil {
			t.Fatalf("%s: no triage block", item.Name)
		}
		if item.Triage.Verdict == "divergence" {
			t.Errorf("%s: divergent: %v", item.Name, item.Triage.Divergences)
		}
		if len(item.Triage.Planes) != 4 {
			t.Errorf("%s: %d planes, want 4", item.Name, len(item.Triage.Planes))
		}
	}
}

func TestAnalyzePerItemErrors(t *testing.T) {
	_, ts := newTestServer(t)
	body, _ := json.Marshal(AnalyzeRequest{Programs: []AnalyzeProgram{
		{Name: "broken", Src: "class {{{"},
		{Name: "fine", Src: "void f() {\n  int x = 1;\n}\n"},
	}})
	out := postAnalyze(t, ts.URL, string(body), http.StatusOK)
	if out.OK != 1 || out.Failed != 1 {
		t.Fatalf("ok=%d failed=%d, want 1/1", out.OK, out.Failed)
	}
	if out.Results[0].Code != http.StatusBadRequest || out.Results[0].Error == "" {
		t.Fatalf("broken item = %+v, want per-item 400", out.Results[0])
	}
	if out.Results[1].Code != http.StatusOK {
		t.Fatalf("fine item = %+v, want 200", out.Results[1])
	}
}

// TestAnalyzeRejects holds every 400 body /analyze writes for a bad
// request to the text it had when encoding/json decoded every body, a
// read that fails mid-body and a body cut off at the size limit
// included.
func TestAnalyzeRejects(t *testing.T) {
	srv, _ := newTestServer(t)
	const limitCut = `{"programs":[{"name":"a","src":"`
	for _, tc := range []struct {
		name, method, body string
		readErr            error // after body
		want               string
	}{
		{"empty", http.MethodPost, `{}`, nil,
			`"empty batch: provide programs and/or a foundry block"`},
		{"zero-count foundry", http.MethodPost, `{"foundry":{"seed":1,"count":0}}`, nil,
			`"foundry.count must be positive"`},
		{"oversized", http.MethodPost, `{"foundry":{"seed":1,"count":100000}}`, nil,
			`"batch of 100000 exceeds limit 256"`},
		{"unknown field", http.MethodPost, `{"bogus":1}`, nil,
			`"invalid JSON body: json: unknown field \"bogus\""`},
		{"GET", http.MethodGet, ``, nil,
			`"method GET not allowed on /analyze (POST a JSON body)"`},
		{"empty body", http.MethodPost, ``, nil, `"invalid JSON body: EOF"`},
		{"null", http.MethodPost, `null`, nil,
			`"empty batch: provide programs and/or a foundry block"`},
		{"empty programs", http.MethodPost, `{"programs":[]}`, nil,
			`"empty batch: provide programs and/or a foundry block"`},
		{"top-level array", http.MethodPost, `[]`, nil,
			`"invalid JSON body: json: cannot unmarshal array into Go value of type serve.AnalyzeRequest"`},
		{"control byte", http.MethodPost, "{\"programs\":[{\"name\":\"a\x01\",\"src\":\"void f() {}\"}]}", nil,
			`"invalid JSON body: invalid character '\\x01' in string literal"`},
		{"truncated", http.MethodPost, `{"programs":[{"name":"a"`, nil,
			`"invalid JSON body: unexpected EOF"`},
		{"type error", http.MethodPost, `{"programs":[{"name":1}]}`, nil,
			`"invalid JSON body: json: cannot unmarshal number into Go struct field AnalyzeProgram.programs.name of type string"`},
		{"bad escape", http.MethodPost, `{"programs":[{"src":"\x"}]}`, nil,
			`"invalid JSON body: invalid character 'x' in string escape code"`},
		{"foundry type", http.MethodPost, `{"foundry":{"seed":"x"}}`, nil,
			`"invalid JSON body: json: cannot unmarshal string into Go struct field AnalyzeFoundry.foundry.seed of type int64"`},
		{"unknown program field", http.MethodPost, `{"programs":[{"name":"a","src":"void f() {}","x":1}]}`, nil,
			`"invalid JSON body: json: unknown field \"x\""`},
		{"read error", http.MethodPost, `{"programs":[{"name":"a"`, errors.New("connection reset"),
			`"invalid JSON body: connection reset"`},
		{"read error first", http.MethodPost, ``, errors.New("connection reset"),
			`"invalid JSON body: connection reset"`},
		{"cut at the limit", http.MethodPost, limitCut + strings.Repeat("a", 8<<20) + `"}]}`, nil,
			`"invalid JSON body: unexpected EOF"`},
	} {
		var body io.Reader = strings.NewReader(tc.body)
		if tc.readErr != nil {
			body = io.MultiReader(body, iotest.ErrReader(tc.readErr))
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(tc.method, "/analyze", body))
		want := "{\n  \"error\": " + tc.want + ",\n  \"code\": 400\n}\n"
		if rec.Code != http.StatusBadRequest || rec.Body.String() != want {
			t.Errorf("%s: status %d, body\n%s\nwant 400 and\n%s", tc.name, rec.Code, rec.Body.String(), want)
		}
	}
}

// TestAnalyzeReadErrorAfterBody: a read that fails once the body's
// JSON value is complete does not fail the request, as json.Decoder
// never reads past that value.
func TestAnalyzeReadErrorAfterBody(t *testing.T) {
	srv, _ := newTestServer(t)
	body := io.MultiReader(strings.NewReader(`{"programs":[{"name":"a","src":"void f() {}"}]} `),
		iotest.ErrReader(errors.New("connection reset")))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/analyze", body))
	if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Body.String(), "{\n  \"results\": [\n    {\n      \"name\": \"a\",\n      \"code\": 200\n    }\n  ],") {
		t.Fatalf("status %d, body\n%s", rec.Code, rec.Body.String())
	}
}

// TestAnalyzeBodyNotSizedFromContentLength: a request that declares an
// 8 MiB body and sends a short one allocates for the bytes it sent, not
// for the length it declared.
func TestAnalyzeBodyNotSizedFromContentLength(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	serveOne := func() {
		req := httptest.NewRequest(http.MethodPost, "/analyze",
			strings.NewReader(`{"programs":[{"name":"a","src":"void f() {}"}]}`))
		req.ContentLength = 8 << 20
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d, body\n%s", rec.Code, rec.Body.String())
		}
	}
	serveOne()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	serveOne()
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("a request declaring an 8 MiB body allocated %d bytes", n)
	}
}

// referenceDecode decodes an /analyze body as encoding/json does.
func referenceDecode(body []byte) (AnalyzeRequest, error) {
	var req AnalyzeRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// analyzeDeclines are bodies parseAnalyzeRequest must leave to
// encoding/json, each for the reason its name gives.
var analyzeDeclines = map[string]string{
	"case-folded key":     `{"Programs":[{"name":"a","src":"b"}]}`,
	"case-folded field":   `{"programs":[{"NAME":"a","src":"b"}]}`,
	"escaped key":         `{"pr\u006fgrams":[]}`,
	"duplicate key":       `{"programs":[{"name":"a"}],"programs":[{"src":"b"}]}`,
	"duplicate field":     `{"programs":[{"name":"a","src":"b","name":"c"}]}`,
	"null":                `null`,
	"null programs":       `{"programs":null}`,
	"null program":        `{"programs":[null]}`,
	"null field":          `{"programs":[{"name":null}]}`,
	"invalid UTF-8":       "{\"programs\":[{\"name\":\"a\xff\"}]}",
	"UTF-8 surrogate":     "{\"programs\":[{\"name\":\"\xed\xa0\x80\"}]}",
	"lone high surrogate": `{"programs":[{"name":"a\ud800b"}]}`,
	"lone low surrogate":  `{"programs":[{"name":"a\udc00b"}]}`,
	"unpaired surrogate":  `{"programs":[{"name":"\ud800\u0041"}]}`,
	"control byte":        "{\"programs\":[{\"name\":\"a\x01\"}]}",
	"foundry block":       `{"foundry":{"seed":42,"count":2}}`,
	"cut off":             `{"programs":[{"name":"a","src":"void f() {`,
	"number field":        `{"programs":[{"name":1}]}`,
	"unknown field":       `{"bogus":1}`,
	"unknown program key": `{"programs":[{"name":"a","x":"y"}]}`,
	"bad escape":          `{"programs":[{"src":"\x"}]}`,
	"short unicode":       `{"programs":[{"src":"\u12"}]}`,
	"trailing comma":      `{"programs":[{"name":"a"},]}`,
	"missing colon":       `{"programs" [{"name":"a"}]}`,
	"field missing colon": `{"programs":[{"name""src":""}]}`,
	"byte order mark":     "\xef\xbb\xbf{\"programs\":[]}",
	"empty body":          ``,
}

// analyzeAccepts are hand-written bodies of the documented shape that
// parseAnalyzeRequest must decode itself.
var analyzeAccepts = []string{
	`{}`,
	`{"programs":[]}`,
	`{"programs":[{}]}`,
	`{"programs":[{"name":"\u003cb\u003e \u0026 \/ \"q\" \\","src":"\b\f\n\r\t\u0000\u00e9\u2028"}]}`,
	`{"programs":[{"name":"\ud83d\ude00 😀 é","src":"\uFFFD"}]}`,
	" \t\r\n{ \"programs\" : [ { \"src\" : \"s\" , \"name\" : \"n\" } , { } ] } trailing bytes",
	`{"programs":[{"name":"a","src":"b"}]}{"programs":1}`,
}

// TestAnalyzeRequestDecode holds parseAnalyzeRequest to encoding/json
// on the bodies clients send (json.Marshal of the corpus and of
// foundry batches) and on hand-written ones, and checks that it
// declines every body encoding/json would decode differently or
// reject.
func TestAnalyzeRequestDecode(t *testing.T) {
	bodies := append([]string(nil), analyzeAccepts...)
	var corpus []AnalyzeProgram
	for _, e := range analyzer.Corpus() {
		corpus = append(corpus, AnalyzeProgram{Name: e.Name, Src: e.Src})
	}
	batches := [][]AnalyzeProgram{corpus}
	for i := 0; i < 500; i += 16 {
		var progs []AnalyzeProgram
		for j := i; j < i+16 && j < 500; j++ {
			g, err := foundry.Generate(42, j)
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, AnalyzeProgram{Name: g.Labels.Name, Src: g.Src})
		}
		batches = append(batches, progs)
	}
	for _, progs := range batches {
		b, err := json.Marshal(AnalyzeRequest{Programs: progs})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, string(b))
	}
	for _, body := range bodies {
		got, ok := parseAnalyzeRequest([]byte(body))
		if !ok {
			t.Fatalf("declined %.200q", body)
		}
		want, err := referenceDecode([]byte(body))
		if err != nil {
			t.Fatalf("%.200q: reference: %v", body, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%.200q:\ngot  %+v\nwant %+v", body, got, want)
		}
	}
	for name, body := range analyzeDeclines {
		if got, ok := parseAnalyzeRequest([]byte(body)); ok {
			t.Errorf("%s: decoded %q as %+v, want a decline", name, body, got)
		}
	}
}

// FuzzAnalyzeRequestDecode: whatever body the fuzzer invents,
// parseAnalyzeRequest either declines it or decodes exactly what
// encoding/json decodes from it without error.
func FuzzAnalyzeRequestDecode(f *testing.F) {
	for _, body := range analyzeDeclines {
		f.Add([]byte(body))
	}
	for _, body := range analyzeAccepts {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := parseAnalyzeRequest(body)
		if !ok {
			return
		}
		want, err := referenceDecode(body)
		if err != nil {
			t.Fatalf("decoded %q, which encoding/json rejects: %v", body, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\ngot  %#v\nwant %#v", body, got, want)
		}
	})
}

func TestAnalyzeDraining(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.SetDraining(true)
	resp, err := http.Post(ts.URL+"/analyze", "application/json",
		bytes.NewReader([]byte(`{"foundry":{"seed":1,"count":1}}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining status = %d, want 503", resp.StatusCode)
	}
}
