package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/foundry"
)

// BenchmarkRunBypass serves one no_cache /run per iteration through
// Handler(), as the compiled-skew and matrix-sweep workloads send every
// request: the whole serving envelope (decode, admission, scheduling,
// metrics, encode) around one execution, without a network. Compare
// allocs/op across changes:
//
//	go test ./internal/serve -run '^$' -bench RunBypass -benchmem
func BenchmarkRunBypass(b *testing.B) {
	body := []byte(`{"scenario":"bss-overflow","defense":"none","no_cache":true}`)
	for _, tier := range []struct {
		name     string
		compiled bool
	}{{"compiled", true}, {"interpreted", false}} {
		b.Run(tier.name, func(b *testing.B) {
			srv := NewServer(Config{Workers: 2, Queue: 64, CacheSize: 512, Compiled: tier.compiled})
			defer srv.Service().Drain()
			h := srv.Handler()
			run := func() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("POST /run = %d: %s", rec.Code, rec.Body.Bytes())
				}
			}
			run() // compiles the program and creates every metric series
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// BenchmarkAnalyzeBatch serves one /analyze batch per iteration
// through Handler(), as the analyze workload sends it: foundry
// programs 0..15 of seed 1, JSON-encoded by the client. Each request
// decodes the body, runs both analysis planes over all 16 programs and
// encodes the reply:
//
//	go test ./internal/serve -run '^$' -bench AnalyzeBatch -benchmem
func BenchmarkAnalyzeBatch(b *testing.B) {
	var progs []AnalyzeProgram
	for i := 0; i < 16; i++ {
		g, err := foundry.Generate(1, i)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, AnalyzeProgram{Name: g.Labels.Name, Src: g.Src})
	}
	body, err := json.Marshal(AnalyzeRequest{Programs: progs})
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(Config{Workers: 2, Queue: 64, CacheSize: 512})
	defer srv.Service().Drain()
	h := srv.Handler()
	run := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("POST /analyze = %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
