package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestOverrunAnswers504: a deadline that passes while the run is going
// answers 504 with the standard error body, never a 500 crash record.
func TestOverrunAnswers504(t *testing.T) {
	srv := NewServer(Config{Workers: 2, Queue: 16, CacheSize: 32})
	t.Cleanup(srv.Service().Drain)
	h := srv.Handler()
	want, err := EncodeJSON(ErrorResponse{Error: context.DeadlineExceeded.Error(), Code: http.StatusGatewayTimeout})
	if err != nil {
		t.Fatal(err)
	}
	const body = `{"scenario":"dos-exhaust","repeat":256,"deadline_ms":2,"no_cache":true}`
	for i := 0; i < 20; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body)))
		if rec.Code != http.StatusGatewayTimeout || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("request %d = %d %s, want 504 %s", i, rec.Code, rec.Body.Bytes(), want)
		}
	}
}
