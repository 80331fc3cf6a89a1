package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/attack"
	"repro/internal/defense"
	"repro/internal/foundry"
	"repro/internal/layout"
	"repro/internal/report"
	"repro/internal/service"
)

// referenceJSON is the encoding WriteJSON used before RunResponse had a
// fast path: json.Encoder with SetIndent("", "  ").
func referenceJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// freshResult copies r's exported fields into a Result with no kept
// encoding.
func freshResult(r *service.Result) *service.Result {
	c := new(service.Result)
	src, dst := reflect.ValueOf(r).Elem(), reflect.ValueOf(c).Elem()
	for i := 0; i < src.NumField(); i++ {
		if dst.Field(i).CanSet() {
			dst.Field(i).Set(src.Field(i))
		}
	}
	return c
}

// matrixResults serves every scenario x defense x model cell once and
// returns the results in matrix order.
func matrixResults(t testing.TB) []*service.Result {
	t.Helper()
	srv := NewServer(Config{Workers: 2, Queue: 64, CacheSize: 2048})
	defer srv.Service().Drain()
	var out []*service.Result
	for _, s := range attack.Catalog() {
		for _, d := range defense.Catalog() {
			for _, m := range []layout.Model{layout.ILP32, layout.ILP32i386, layout.LP64} {
				res, _, err := srv.Service().Handle(context.Background(), service.Request{
					Scenario: s.ID, Defense: d.Name, Model: m.Name,
				})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", s.ID, d.Name, m.Name, err)
				}
				out = append(out, res)
			}
		}
	}
	return out
}

var (
	cacheTokens = []string{service.CacheHit, service.CacheMiss, service.CacheBypass, service.CacheCoalesced, service.CacheCloned}
	stageSets   = []map[string]float64{
		nil,
		{},
		{service.StageCacheLookup: 0.0123},
		{
			service.StageQueueWait: 1e-7, service.StageCacheLookup: 0, service.StageCacheFill: 1e21,
			service.StageClone: 0.25, service.StageExecute: 12.5, service.StageShadowCheck: 3.0000000000000004,
		},
	}
	traceIDs = []string{"t-1", `a<b>&"c\`, "\u2028", "\xff"}
)

// writeBody runs WriteJSON and returns the body, checking the framing.
func writeBody(t *testing.T, v any) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, v)
	if rec.Code != http.StatusOK {
		t.Fatalf("WriteJSON status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
	}
	return rec.Body.Bytes()
}

// TestRunResponseMatchesEncoder holds WriteJSON's RunResponse fast path
// byte-identical to the reflective encoder over every matrix cell and
// every envelope shape, on a result with no kept encoding (which a hit
// or coalesced token then keeps) and on one whose encoding is kept.
func TestRunResponseMatchesEncoder(t *testing.T) {
	results := append(matrixResults(t), nil)
	if len(results) != 1218+1 {
		t.Fatalf("%d results, want the 1218 matrix cells and a nil one", len(results))
	}
	for ci, res := range results {
		if res != nil {
			writeBody(t, RunResponse{Result: res, Cache: service.CacheHit})
			if res.Encoded() == nil {
				t.Fatalf("cell %d: a hit kept no encoding", ci)
			}
		}
		n := int64(0)
		for _, tok := range cacheTokens {
			for _, st := range stageSets {
				for _, id := range traceIDs {
					n++
					v := RunResponse{Result: res, Cache: tok, ServeNS: n * 7919, TraceID: id, Stages: st}
					want, err := referenceJSON(v)
					if err != nil {
						t.Fatal(err)
					}
					if got := writeBody(t, v); !bytes.Equal(got, want) {
						t.Fatalf("cell %d %s kept:\ngot  %q\nwant %q", ci, tok, got, want)
					}
					if res == nil {
						continue
					}
					cold := freshResult(res)
					v.Result = cold
					if got := writeBody(t, v); !bytes.Equal(got, want) {
						t.Fatalf("cell %d %s not kept:\ngot  %q\nwant %q", ci, tok, got, want)
					}
					kept := tok == service.CacheHit || tok == service.CacheCoalesced
					if (cold.Encoded() != nil) != kept {
						t.Fatalf("cell %d %s: kept = %v, want %v", ci, tok, cold.Encoded() != nil, kept)
					}
				}
			}
		}
	}
}

// FuzzRunResponseMatchesEncoder fuzzes the envelope the fast path
// appends: both encoders must agree on the bytes, or both refuse.
func FuzzRunResponseMatchesEncoder(f *testing.F) {
	srv := NewServer(Config{Workers: 1, Queue: 4})
	defer srv.Service().Drain()
	res, _, err := srv.Service().Handle(context.Background(), service.Request{Scenario: "bss-overflow", Defense: "shadow"})
	if err != nil {
		f.Fatal(err)
	}
	warm := freshResult(res)
	if _, err := EncodeJSON(RunResponse{Result: warm, Cache: service.CacheHit}); err != nil || warm.Encoded() == nil {
		f.Fatalf("priming the kept encoding: %v", err)
	}
	f.Add("t-1", service.CacheHit, int64(0), service.StageCacheLookup, 0.0123, 0.0, uint8(2), uint8(2))
	f.Add(`a<b>&"c\`, service.CacheMiss, int64(-1), service.StageExecute, 1e-7, 1e21, uint8(1), uint8(1))
	f.Add("\u2028\xff", "", int64(math.MaxInt64), "", 0.0, -0.0, uint8(0), uint8(0))
	f.Add("t-2", service.CacheCoalesced, int64(5), "k\x00", math.NaN(), math.Inf(1), uint8(2), uint8(2))
	f.Add("t-3", service.CacheCloned, int64(7), "q", 1e20, 123456789.125, uint8(2), uint8(3))
	// Each byte the string fast path must hand to encoding/json, alone.
	for _, s := range []string{"<", ">", "&", `"`, `\`, "\n", "\x1f", "\x7f", "é"} {
		f.Add("t"+s, s, int64(1), s, 1.0, 2.0, uint8(2), uint8(1))
	}
	f.Fuzz(func(t *testing.T, traceID, cache string, serveNS int64, key string, a, b float64, stages, mode uint8) {
		v := RunResponse{Cache: cache, ServeNS: serveNS, TraceID: traceID}
		switch stages % 3 {
		case 1:
			v.Stages = map[string]float64{service.StageExecute: a}
		case 2:
			v.Stages = map[string]float64{service.StageExecute: a, key: b}
		}
		switch mode % 3 {
		case 1:
			v.Result = freshResult(res)
		case 2:
			v.Result = warm
		}
		want, werr := referenceJSON(v)
		got, gerr := EncodeJSON(v)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("errors differ: fast %v, reference %v", gerr, werr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("bodies differ:\ngot  %q\nwant %q", got, want)
		}
	})
}

// fieldValues returns the values TestResultEncoderCoversEveryField sets
// a field of type typ to, or fails for a kind it has none for: a field
// of a new kind needs values here and code in appendResult.
func fieldValues(t *testing.T, name string, typ reflect.Type) []reflect.Value {
	t.Helper()
	var out []reflect.Value
	switch typ.Kind() {
	case reflect.String:
		for _, s := range []string{"plain", "a<b>&c", "line\u2028sep", "lone\xff"} {
			out = append(out, reflect.ValueOf(s).Convert(typ))
		}
	case reflect.Int, reflect.Int64:
		for _, n := range []int64{1, -7, 1 << 40} {
			v := reflect.New(typ).Elem()
			v.SetInt(n)
			out = append(out, v)
		}
	case reflect.Float64:
		for _, f := range []float64{math.Copysign(0, -1), 1e-7, 1e21, 0.1} {
			out = append(out, reflect.ValueOf(f).Convert(typ))
		}
	case reflect.Slice:
		elems := fieldValues(t, name, typ.Elem())
		out = append(out, reflect.Zero(typ), reflect.MakeSlice(typ, 0, 0),
			reflect.Append(reflect.MakeSlice(typ, 0, len(elems)), elems...))
	case reflect.Map:
		if typ.Key().Kind() != reflect.String {
			t.Fatalf("%s: map key kind %s has no test values", name, typ.Key().Kind())
		}
		keys := fieldValues(t, name, typ.Key())
		vals := fieldValues(t, name, typ.Elem())
		full := reflect.MakeMap(typ)
		for i, v := range vals {
			full.SetMapIndex(keys[i%len(keys)], v)
			full.SetMapIndex(reflect.ValueOf("k"+strconv.Itoa(i)).Convert(typ.Key()), v)
		}
		out = append(out, reflect.Zero(typ), reflect.MakeMap(typ), full)
	default:
		t.Fatalf("%s: kind %s has no test values; teach appendResult and fieldValues the new field", name, typ.Kind())
	}
	return out
}

// checkResultEncoding holds r's /run body, as a miss and as a hit that
// keeps its encoding, equal to the reference encoder's.
func checkResultEncoding(t *testing.T, what string, r *service.Result) {
	t.Helper()
	want, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for _, tok := range []string{service.CacheMiss, service.CacheHit} {
		v := RunResponse{Result: freshResult(r), Cache: tok, ServeNS: 1, TraceID: "t-1"}
		ref, err := referenceJSON(v)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		got, err := EncodeJSON(v)
		if err != nil || !bytes.Equal(got, ref) {
			t.Fatalf("%s as %s (err %v):\ngot  %q\nwant %q", what, tok, err, got, ref)
		}
		if kept := v.Result.Encoded(); tok == service.CacheHit && !bytes.Equal(kept, want) {
			t.Fatalf("%s: kept encoding\n%q\nwant %q", what, kept, want)
		}
	}
}

// TestResultEncoderCoversEveryField sets each exported field of
// service.Result, and of the report.TableData inside it, in turn to
// each of its test values, then all of them at once, and holds
// appendResult to encoding/json on every one. A field appendResult
// does not write fails here; so does a field of a kind with no test
// values.
func TestResultEncoderCoversEveryField(t *testing.T) {
	typ := reflect.TypeOf(service.Result{})
	var paths [][]int
	var walk func(reflect.Type, []int)
	walk = func(st reflect.Type, prefix []int) {
		for i := 0; i < st.NumField(); i++ {
			f := st.Field(i)
			if !f.IsExported() {
				continue
			}
			path := append(append([]int(nil), prefix...), i)
			if f.Type == reflect.TypeOf(report.TableData{}) {
				walk(f.Type, path)
				continue
			}
			paths = append(paths, path)
		}
	}
	walk(typ, nil)
	all := new(service.Result)
	for _, path := range paths {
		field := typ.FieldByIndex(path)
		values := fieldValues(t, field.Name, field.Type)
		for i, val := range values {
			r := new(service.Result)
			reflect.ValueOf(r).Elem().FieldByIndex(path).Set(val)
			checkResultEncoding(t, field.Name+"#"+strconv.Itoa(i), r)
		}
		reflect.ValueOf(all).Elem().FieldByIndex(path).Set(values[len(values)-1])
	}
	if len(paths) < 18 {
		t.Fatalf("walked %d fields; Result and TableData have at least 18", len(paths))
	}
	checkResultEncoding(t, "every field", all)
}

// FuzzResultMatchesEncoder fuzzes a Result's strings, integers and
// floats, NaN and infinities included: appendResult must write what
// the reflective encoder writes, or both must refuse.
func FuzzResultMatchesEncoder(f *testing.F) {
	f.Add("bss-overflow", "SUCCESS", "overflow_bytes", int64(0), int64(1234), 0.0, 0.5, 1.0, uint8(0))
	f.Add("a<b>&c", "line\u2028sep", "lone\xff", int64(-1), int64(math.MaxInt64), 1e-7, 1e21, -0.0, uint8(4))
	f.Add("x", "", "k\x00", int64(3), int64(-9), math.NaN(), 1.0, 2.0, uint8(1))
	f.Add("x", "y", "z", int64(1<<40), int64(0), 0.25, math.Inf(-1), 123456789.125, uint8(6))
	f.Add("x", "y", "z", int64(2), int64(5), math.Inf(1), 3e-320, 1e300, uint8(2))
	f.Fuzz(func(t *testing.T, id, cell, key string, seed, computeNS int64, chaos, m1, m2 float64, shape uint8) {
		r := &service.Result{
			Key: key, Kind: "scenario", ID: id, Defense: cell, Model: id, Seed: seed,
			ChaosProb: chaos, Faults: cell, Repeat: int(seed % 100), Status: cell,
			Table: report.TableData{
				Title: id, Headers: []string{key, cell}, Rows: [][]string{{id, cell}, {}, nil},
			},
			Details:        []string{cell, key},
			Metrics:        map[string]float64{key: m1, id: m2},
			InjectedFaults: int(computeNS % 7), ComputeNS: computeNS, Version: key,
		}
		switch shape % 3 {
		case 1:
			r.Table.Headers, r.Table.Rows, r.Details, r.Metrics = nil, nil, nil, nil
		case 2:
			r.Table.Headers, r.Table.Rows, r.Details, r.Metrics = []string{}, [][]string{}, []string{}, map[string]float64{}
		}
		cache := service.CacheMiss
		if shape&4 != 0 {
			cache = service.CacheHit
		}
		v := RunResponse{Result: r, Cache: cache, TraceID: id}
		want, werr := referenceJSON(v)
		got, gerr := EncodeJSON(v)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("errors differ: fast %v, reference %v", gerr, werr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("bodies differ:\ngot  %q\nwant %q", got, want)
		}
	})
}

// TestConcurrentHitsShareOneEncoding serves one stored result from
// many goroutines at once, through the handler and through WriteJSON
// directly, while the first hits race to keep its encoding: every body
// must carry the same result bytes. Run it under -race.
func TestConcurrentHitsShareOneEncoding(t *testing.T) {
	srv, _ := newTestServer(t)
	const body = `{"scenario":"vptr-bss","defense":"hardened","model":"LP64"}`
	post := func() []byte {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Errorf("POST /run = %d: %s", rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	post() // the miss stores the result without keeping its encoding
	key, err := service.Key(service.Request{Scenario: "vptr-bss", Defense: "hardened", Model: "LP64"})
	if err != nil {
		t.Fatal(err)
	}
	stored, ok := srv.Service().Cache().Get(key)
	if !ok {
		t.Fatal("the miss stored nothing")
	}
	if stored.Encoded() != nil {
		t.Fatalf("a miss kept an encoding: %s", stored.Encoded())
	}
	direct := RunResponse{Result: stored, Cache: service.CacheHit, ServeNS: 42, TraceID: "t-1",
		Stages: map[string]float64{service.StageCacheLookup: 0.5}}
	wantDirect, err := referenceJSON(direct)
	if err != nil {
		t.Fatal(err)
	}
	resBytes, err := json.MarshalIndent(stored, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	wantPrefix := string(resBytes[:len(resBytes)-2]) + ",\n  \"cache\": \"hit\",\n"

	const goroutines, perG = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if got := post(); !strings.HasPrefix(string(got), wantPrefix) {
					t.Errorf("handler hit body:\n%s\nwant prefix:\n%s", got, wantPrefix)
					return
				}
				rec := httptest.NewRecorder()
				WriteJSON(rec, http.StatusOK, direct)
				if got := rec.Body.Bytes(); !bytes.Equal(got, wantDirect) {
					t.Errorf("direct hit body:\n%s\nwant:\n%s", got, wantDirect)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := stored.Encoded(); string(got) != string(resBytes) {
		t.Fatalf("kept encoding:\n%s\nwant:\n%s", got, resBytes)
	}
}

// TestUnencodableResultIs500 stores a result JSON cannot encode (a NaN
// metric) and serves it as a hit: the client gets a structured 500,
// not a 200 with an empty body.
func TestUnencodableResultIs500(t *testing.T) {
	srv, ts := newTestServer(t)
	req := service.Request{Scenario: "bss-overflow"}
	key, err := service.Key(req)
	if err != nil {
		t.Fatal(err)
	}
	srv.Service().Cache().Put(key, &service.Result{
		Key: key, Kind: "scenario", ID: "bss-overflow", Status: "SUCCESS",
		Metrics: map[string]float64{"overflow_bytes": math.NaN()}, Version: service.CodeVersion,
	})
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("status %d, undecodable body: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusInternalServerError || out.Code != http.StatusInternalServerError ||
		!strings.Contains(out.Error, "NaN") {
		t.Fatalf("status %d, body %+v; want a 500 naming the unsupported value", resp.StatusCode, out)
	}
}

// TestDeterministicServerUptime: the virtual clock of a deterministic
// server starts at the epoch, but /healthz and /readyz report the time
// since the process started serving.
func TestDeterministicServerUptime(t *testing.T) {
	srv := NewServer(Config{Workers: 1, Queue: 4, Deterministic: true})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Service().Drain()
	}()
	for _, path := range []string{"/healthz", "/readyz"} {
		out := getJSON(t, ts.URL+path, http.StatusOK)
		ms, ok := out["uptime_ms"].(float64)
		if !ok || ms < 0 || ms >= 60000 {
			t.Errorf("%s uptime_ms = %v, want [0, 60000)", path, out["uptime_ms"])
		}
	}
}

// checkAnalyzeEncoding holds EncodeJSON's AnalyzeResponse body to the
// reflective encoder's, through WriteJSON's framing too.
func checkAnalyzeEncoding(t *testing.T, what string, v AnalyzeResponse) {
	t.Helper()
	want, err := encodeIndented(v)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got, err := EncodeJSON(v); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s (err %v):\ngot  %q\nwant %q", what, err, got, want)
	}
	if got := writeBody(t, v); !bytes.Equal(got, want) {
		t.Fatalf("%s through WriteJSON:\ngot  %q\nwant %q", what, got, want)
	}
}

// TestAnalyzeResponseMatchesEncoder holds the /analyze body to the
// reflective encoder over the items the server builds: foundry
// programs 0..499 of seed 42 in batches of 16, the listing corpus, a
// parse failure, a foundry-triage item, and nil and empty results.
func TestAnalyzeResponseMatchesEncoder(t *testing.T) {
	var items []AnalyzeItem
	for i := 0; i < 500; i++ {
		g, err := foundry.Generate(42, i)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, analyzeOne(g.Labels.Name, g.Src))
	}
	for i := 0; i < len(items); i += 16 {
		batch := items[i:min(i+16, len(items))]
		checkAnalyzeEncoding(t, "foundry batch "+strconv.Itoa(i/16), AnalyzeResponse{Results: batch, OK: len(batch), ServeNS: int64(i) * 7919})
	}
	var corpus []AnalyzeItem
	for _, e := range analyzer.Corpus() {
		corpus = append(corpus, analyzeOne(e.Name, e.Src))
	}
	checkAnalyzeEncoding(t, "corpus", AnalyzeResponse{Results: corpus, OK: len(corpus), ServeNS: 1})
	broken := analyzeOne("broken", "class {{{")
	if broken.Code != http.StatusBadRequest || broken.Error == "" {
		t.Fatalf("parse failure item = %+v", broken)
	}
	checkAnalyzeEncoding(t, "parse failure", AnalyzeResponse{Results: []AnalyzeItem{broken, items[0]}, OK: 1, Failed: 1})
	g, err := foundry.Generate(42, 3)
	if err != nil {
		t.Fatal(err)
	}
	triaged := analyzeOne(g.Labels.Name, g.Src)
	if triaged.Triage, err = foundry.TriageProgram(g); err != nil {
		t.Fatal(err)
	}
	checkAnalyzeEncoding(t, "triage", AnalyzeResponse{Results: []AnalyzeItem{items[1], triaged}, OK: 2})
	checkAnalyzeEncoding(t, "nil results", AnalyzeResponse{})
	checkAnalyzeEncoding(t, "empty results", AnalyzeResponse{Results: []AnalyzeItem{}, Failed: -3, ServeNS: math.MaxInt64})
}

// TestAnalyzeEncoderCoversEveryField sets each exported field of
// AnalyzeResponse, AnalyzeItem and AnalysisFinding in turn to each of
// its test values, then all of them at once, and holds the direct
// encoder to encoding/json on every one. A field encodeAnalyze does
// not write fails here; so does a field of a kind with no test values.
func TestAnalyzeEncoderCoversEveryField(t *testing.T) {
	// Each field is reached from a response holding one item with one
	// finding; set picks the struct that holds it.
	base := func() AnalyzeResponse {
		return AnalyzeResponse{Results: []AnalyzeItem{{Findings: []AnalysisFinding{{}}}}}
	}
	levels := []struct {
		typ reflect.Type
		set func(*AnalyzeResponse) reflect.Value
	}{
		{reflect.TypeOf(AnalyzeResponse{}), func(v *AnalyzeResponse) reflect.Value { return reflect.ValueOf(v).Elem() }},
		{reflect.TypeOf(AnalyzeItem{}), func(v *AnalyzeResponse) reflect.Value { return reflect.ValueOf(&v.Results[0]).Elem() }},
		{reflect.TypeOf(AnalysisFinding{}), func(v *AnalyzeResponse) reflect.Value {
			return reflect.ValueOf(&v.Results[0].Findings[0]).Elem()
		}},
	}
	all := base()
	fields := 0
	for _, lv := range levels {
		for i := 0; i < lv.typ.NumField(); i++ {
			f := lv.typ.Field(i)
			if !f.IsExported() {
				continue
			}
			fields++
			var values []reflect.Value
			switch {
			case f.Type == reflect.TypeOf([]AnalyzeItem(nil)):
				values = []reflect.Value{reflect.Zero(f.Type), reflect.ValueOf([]AnalyzeItem{}),
					reflect.ValueOf([]AnalyzeItem{{Name: "a"}, {Code: 400, Error: "e<"}})}
			case f.Type == reflect.TypeOf([]AnalysisFinding(nil)):
				values = []reflect.Value{reflect.Zero(f.Type), reflect.ValueOf([]AnalysisFinding{}),
					reflect.ValueOf([]AnalysisFinding{{Plane: "static"}, {Message: "m\u2028"}})}
			case f.Type == reflect.TypeOf((*foundry.ProgramTriage)(nil)):
				values = []reflect.Value{reflect.Zero(f.Type), reflect.ValueOf(&foundry.ProgramTriage{Name: "t"})}
			default:
				values = fieldValues(t, f.Name, f.Type)
			}
			for j, val := range values {
				v := base()
				lv.set(&v).Field(i).Set(val)
				checkAnalyzeEncoding(t, f.Name+"#"+strconv.Itoa(j), v)
			}
			if f.Type.Kind() != reflect.Slice {
				lv.set(&all).Field(i).Set(values[len(values)-1])
			}
		}
	}
	if fields < 16 {
		t.Fatalf("walked %d fields; the three types have at least 16", fields)
	}
	checkAnalyzeEncoding(t, "every field", all)
	all.Results[0].Triage = nil
	checkAnalyzeEncoding(t, "every field but triage", all)
}
