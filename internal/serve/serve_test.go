package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(Config{
		Workers: 4, Queue: 16, CacheSize: 32,
		Deadline: 10 * time.Second, MaxDeadline: 30 * time.Second,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Service().Drain()
	})
	return srv, ts
}

func getJSON(t *testing.T, url string, wantCode int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, wantCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: invalid JSON: %v", url, err)
	}
	return out
}

func TestRunEndpointCachesRepeats(t *testing.T) {
	_, ts := newTestServer(t)

	first := getJSON(t, ts.URL+"/run?experiment=E1", http.StatusOK)
	if first["cache"] != "miss" || first["status"] != "ok" || first["id"] != "E1" {
		t.Fatalf("first response = %v", first)
	}
	second := getJSON(t, ts.URL+"/run?experiment=E1", http.StatusOK)
	if second["cache"] != "hit" {
		t.Fatalf("second response cache = %v, want hit", second["cache"])
	}
	if first["key"] != second["key"] {
		t.Fatalf("keys differ across identical requests: %v vs %v", first["key"], second["key"])
	}
}

func TestRunEndpointPostScenario(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"scenario":"bss-overflow","defense":"stackguard","model":"LP64","priority":"high"}`
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /run = %d, want 200", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["kind"] != "scenario" || out["id"] != "bss-overflow" || out["model"] != "LP64" {
		t.Fatalf("response = %v", out)
	}
	if out["status"] == "" {
		t.Fatal("scenario response missing status")
	}
}

func TestRunEndpointBadRequest(t *testing.T) {
	_, ts := newTestServer(t)
	out := getJSON(t, ts.URL+"/run?experiment=E99", http.StatusBadRequest)
	if msg, _ := out["error"].(string); !strings.Contains(msg, "E99") {
		t.Fatalf("400 body = %v, want the unknown ID named", out)
	}
	// The unknown-ID text comes from experiments.ByID — the same error
	// every other cmd prints.
	if msg := out["error"].(string); !strings.Contains(msg, "unknown experiment") {
		t.Fatalf("error text %q, want experiments.ByID's wording", msg)
	}
}

func TestCatalogHealthMetrics(t *testing.T) {
	srv, ts := newTestServer(t)

	cat := getJSON(t, ts.URL+"/experiments", http.StatusOK)
	if exps, ok := cat["experiments"].([]any); !ok || len(exps) < 19 {
		t.Fatalf("catalog experiments = %v", cat["experiments"])
	}
	if scns, ok := cat["scenarios"].([]any); !ok || len(scns) == 0 {
		t.Fatalf("catalog scenarios = %v", cat["scenarios"])
	}

	health := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}

	// Generate one request so serving metrics exist, then scrape.
	getJSON(t, ts.URL+"/run?experiment=E5", http.StatusOK)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q, want Prometheus text", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{"pn_serve_requests_total", "pn_serve_cache_events_total", "pn_serve_latency_ms"} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, text)
		}
	}

	// Draining: liveness stays 200 (the process is alive and shutting
	// down cleanly), readiness fails, /run sheds with 503.
	srv.SetDraining(true)
	if out := getJSON(t, ts.URL+"/healthz", http.StatusOK); out["status"] != "draining" {
		t.Fatalf("draining healthz = %v, want 200 with draining status", out)
	}
	if out := getJSON(t, ts.URL+"/readyz", http.StatusServiceUnavailable); out["status"] != "draining" {
		t.Fatalf("draining readyz = %v", out)
	}
	out := getJSON(t, ts.URL+"/run?experiment=E1", http.StatusServiceUnavailable)
	if rej, ok := out["reject"].(map[string]any); !ok || rej["reason"] != "draining" {
		t.Fatalf("draining /run = %v, want structured draining rejection", out)
	}
}

// TestReadyzLiveness: a fresh server is both live and ready.
func TestReadyzReady(t *testing.T) {
	_, ts := newTestServer(t)
	if out := getJSON(t, ts.URL+"/readyz", http.StatusOK); out["status"] != "ready" {
		t.Fatalf("readyz = %v, want ready", out)
	}
}

// TestTenantQuotaOverHTTP: the X-PN-Tenant header selects the quota
// bucket; an exhausted tenant gets a structured 429 with the quota
// reason, both Retry-After headers, and its tenant echoed — while
// other tenants keep flowing.
func TestTenantQuotaOverHTTP(t *testing.T) {
	srv := NewServer(Config{
		Workers: 4, Queue: 16, CacheSize: 32,
		Deadline: 10 * time.Second, MaxDeadline: 30 * time.Second,
		TenantRate: 0.001, TenantBurst: 1, // one request, then a very slow refill
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Service().Drain() })

	do := func(tenant, experiment string) *http.Response {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/run?no_cache=true&experiment="+experiment, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tenant != "" {
			req.Header.Set("X-PN-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := do("Greedy", "E1")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first tenant request = %d, want 200", resp.StatusCode)
	}

	resp = do("Greedy", "E2")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second tenant request = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" || resp.Header.Get("X-PN-Retry-After-MS") == "" {
		t.Fatal("429 missing Retry-After / X-PN-Retry-After-MS headers")
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	rej, ok := out["reject"].(map[string]any)
	if !ok || rej["reason"] != "quota" || rej["tenant"] != "greedy" {
		t.Fatalf("429 body = %v, want quota rejection for normalized tenant greedy", out)
	}

	// A different tenant still has its own full bucket.
	resp = do("other", "E1")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant = %d, want 200 (quota not isolated per tenant)", resp.StatusCode)
	}
}

func postJSON(t *testing.T, url, body string, wantCode int) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s = %d, want %d (body: %s)", url, resp.StatusCode, wantCode, raw)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: invalid JSON: %v", url, err)
	}
	return out
}

func TestRunBatchMixedOutcomes(t *testing.T) {
	_, ts := newTestServer(t)
	out := postJSON(t, ts.URL+"/runbatch", `{"requests":[
		{"experiment":"E1"},
		{"scenario":"bss-overflow","defense":"nx"},
		{"experiment":"does-not-exist"}
	]}`, http.StatusOK)
	if out["ok"] != float64(2) || out["failed"] != float64(1) {
		t.Fatalf("batch envelope = %v, want ok=2 failed=1", out)
	}
	results, ok := out["results"].([]any)
	if !ok || len(results) != 3 {
		t.Fatalf("results = %v, want 3 in request order", out["results"])
	}
	first := results[0].(map[string]any)
	if first["id"] != "E1" || first["code"] != float64(200) || first["cache"] == "" {
		t.Fatalf("item 0 = %v, want E1 ok with cache token", first)
	}
	second := results[1].(map[string]any)
	if second["id"] != "bss-overflow" || second["code"] != float64(200) {
		t.Fatalf("item 1 = %v, want bss-overflow ok", second)
	}
	third := results[2].(map[string]any)
	if third["code"] != float64(400) || third["error"] == "" {
		t.Fatalf("item 2 = %v, want per-item 400 with error text", third)
	}
	// A failed sibling never fails the call: whole-batch serve_ns present.
	if _, ok := out["serve_ns"]; !ok {
		t.Fatalf("batch envelope missing serve_ns: %v", out)
	}
}

func TestRunBatchValidation(t *testing.T) {
	srv, ts := newTestServer(t)

	// Empty batch.
	out := postJSON(t, ts.URL+"/runbatch", `{"requests":[]}`, http.StatusBadRequest)
	if !strings.Contains(out["error"].(string), "empty") {
		t.Fatalf("empty batch error = %v", out)
	}
	// Unknown top-level fields are rejected.
	postJSON(t, ts.URL+"/runbatch", `{"requests":[{"experiment":"E1"}],"oops":1}`, http.StatusBadRequest)
	// Oversize batch.
	var sb strings.Builder
	sb.WriteString(`{"requests":[`)
	for i := 0; i < 65; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"experiment":"E1"}`)
	}
	sb.WriteString(`]}`)
	out = postJSON(t, ts.URL+"/runbatch", sb.String(), http.StatusBadRequest)
	if !strings.Contains(out["error"].(string), "exceeds limit") {
		t.Fatalf("oversize batch error = %v", out)
	}
	// GET is refused.
	getJSON(t, ts.URL+"/runbatch", http.StatusBadRequest)
	// Draining answers the structured 503.
	srv.SetDraining(true)
	out = postJSON(t, ts.URL+"/runbatch", `{"requests":[{"experiment":"E1"}]}`, http.StatusServiceUnavailable)
	if rej, ok := out["reject"].(map[string]any); !ok || rej["reason"] != "draining" {
		t.Fatalf("draining /runbatch = %v, want structured draining rejection", out)
	}
}
