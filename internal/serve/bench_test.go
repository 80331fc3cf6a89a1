package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
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
