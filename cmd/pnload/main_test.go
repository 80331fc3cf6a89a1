package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeServe is a minimal pnserve stand-in: the first request per id is
// a miss, repeats are hits; when shedEvery > 0 every shedEvery-th
// request is shed with a 429.
func fakeServe(shedEvery int64) http.Handler {
	var count atomic.Int64
	var mu sync.Mutex
	seen := map[string]bool{}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := count.Add(1)
		if shedEvery > 0 && n%shedEvery == 0 {
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]any{"error": "shed", "code": 429})
			return
		}
		id := r.URL.Query().Get("experiment")
		if id == "" {
			id = r.URL.Query().Get("scenario")
		}
		mu.Lock()
		cache := "hit"
		if !seen[id] {
			seen[id], cache = true, "miss"
		}
		mu.Unlock()
		resp := map[string]any{"id": id, "status": "ok", "cache": cache}
		if tid := r.Header.Get("X-PN-Trace-Id"); tid != "" {
			resp["trace_id"] = tid
			resp["stages"] = map[string]float64{"queue_wait": 0.5, "execute": 1.25}
		}
		json.NewEncoder(w).Encode(resp)
	})
}

func TestSweepWritesBenchServe(t *testing.T) {
	ts := httptest.NewServer(fakeServe(0))
	defer ts.Close()

	outPath := filepath.Join(t.TempDir(), "BENCH_SERVE.json")
	var stdout strings.Builder
	if err := run([]string{
		"-url", ts.URL, "-ids", "E1,E3", "-levels", "1,2", "-requests", "10",
		"-out", outPath, "-min-hit-rate", "0.5",
	}, &stdout); err != nil {
		t.Fatalf("run: %v (stdout: %s)", err, stdout.String())
	}

	blob, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchServe
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("BENCH_SERVE.json is not valid JSON: %v", err)
	}
	if rep.Schema != Schema {
		t.Fatalf("schema = %q, want %q", rep.Schema, Schema)
	}
	if len(rep.Levels) != 2 || rep.Levels[0].Concurrency != 1 || rep.Levels[1].Concurrency != 2 {
		t.Fatalf("levels = %+v, want the 1,2 sweep", rep.Levels)
	}
	if rep.Totals.Requests != 20 || rep.Totals.OK != 20 || rep.Totals.Errors != 0 {
		t.Fatalf("totals = %+v, want 20 ok / 0 errors", rep.Totals)
	}
	// Warmup touched both ids, so the whole measured sweep hits.
	if rep.Totals.CacheHitRate < 0.99 {
		t.Fatalf("cache hit rate = %g, want ~1.0 after warmup", rep.Totals.CacheHitRate)
	}
	for _, lv := range rep.Levels {
		qw, ok := lv.Stages["queue_wait"]
		if !ok || qw.P99 != 0.5 {
			t.Fatalf("level %d stage percentiles = %+v, want queue_wait p99 0.5", lv.Concurrency, lv.Stages)
		}
		if ex := lv.Stages["execute"]; ex.P99 != 1.25 {
			t.Fatalf("level %d execute p99 = %+v, want 1.25", lv.Concurrency, lv.Stages["execute"])
		}
		if lv.Latency.P50 <= 0 || lv.Latency.P99 < lv.Latency.P50 {
			t.Fatalf("level %d latency stats = %+v", lv.Concurrency, lv.Latency)
		}
		if lv.ThroughputRPS <= 0 {
			t.Fatalf("level %d throughput = %g", lv.Concurrency, lv.ThroughputRPS)
		}
	}
}

func TestShedCountedNotFailed(t *testing.T) {
	ts := httptest.NewServer(fakeServe(5)) // every 5th request shed
	defer ts.Close()

	outPath := filepath.Join(t.TempDir(), "BENCH_SERVE.json")
	var stdout strings.Builder
	if err := run([]string{
		"-url", ts.URL, "-ids", "E1", "-levels", "2", "-requests", "20",
		"-out", outPath, "-warm=false",
	}, &stdout); err != nil {
		t.Fatalf("run treated shed responses as failure: %v", err)
	}
	blob, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchServe
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Shed == 0 {
		t.Fatalf("totals = %+v, want shed > 0", rep.Totals)
	}
	if rep.Totals.Errors != 0 {
		t.Fatalf("totals = %+v, want sheds excluded from errors", rep.Totals)
	}
	if rep.Totals.OK+rep.Totals.Shed != rep.Totals.Requests {
		t.Fatalf("totals don't add up: %+v", rep.Totals)
	}
}

func TestHitRateGateFails(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Pathological server: never a cache hit.
		json.NewEncoder(w).Encode(map[string]any{"status": "ok", "cache": "miss"})
	}))
	defer ts.Close()

	outPath := filepath.Join(t.TempDir(), "BENCH_SERVE.json")
	var stdout strings.Builder
	err := run([]string{
		"-url", ts.URL, "-ids", "E1", "-levels", "1", "-requests", "5",
		"-out", outPath, "-min-hit-rate", "0.5",
	}, &stdout)
	if err == nil || !strings.Contains(err.Error(), "hit rate") {
		t.Fatalf("err = %v, want hit-rate gate failure", err)
	}
	if _, statErr := os.Stat(outPath); statErr != nil {
		t.Fatal("artifact must be written even when the gate fails")
	}
}

// TestRetriesHonorRetryAfter: with -retries, a shed response is retried
// after the server's millisecond backoff hint and the retry is recorded;
// without the flag (the default) the same workload keeps its shed count.
func TestRetriesHonorRetryAfter(t *testing.T) {
	var count atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if count.Add(1)%2 == 1 { // every odd request shed, the retry succeeds
			w.Header().Set("Retry-After", "1")
			w.Header().Set("X-PN-Retry-After-MS", "5")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]any{"error": "shed", "code": 429})
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"status": "ok", "cache": "miss"})
	}))
	defer ts.Close()

	outPath := filepath.Join(t.TempDir(), "BENCH_SERVE.json")
	var stdout strings.Builder
	if err := run([]string{
		"-url", ts.URL, "-ids", "E1", "-levels", "1", "-requests", "6",
		"-out", outPath, "-warm=false", "-retries", "2",
	}, &stdout); err != nil {
		t.Fatalf("run: %v", err)
	}
	blob, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchServe
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Totals.OK != 6 || rep.Totals.Shed != 0 {
		t.Fatalf("totals = %+v, want every shed retried to success", rep.Totals)
	}
	if rep.Totals.Retries == 0 {
		t.Fatalf("totals = %+v, want retries recorded", rep.Totals)
	}
}

// TestRetryDelayPrefersMillisecondHint: the precise X-PN-Retry-After-MS
// header wins over whole-second Retry-After, and both are capped.
func TestRetryDelayPrefersMillisecondHint(t *testing.T) {
	h := http.Header{}
	h.Set("Retry-After", "3")
	h.Set("X-PN-Retry-After-MS", "250")
	if d := retryDelay(h, time.Second); d != 250*time.Millisecond {
		t.Fatalf("delay = %v, want the 250ms hint", d)
	}
	h.Del("X-PN-Retry-After-MS")
	if d := retryDelay(h, time.Second); d != time.Second {
		t.Fatalf("delay = %v, want the 3s hint capped at 1s", d)
	}
	if d := retryDelay(http.Header{}, time.Second); d != 50*time.Millisecond {
		t.Fatalf("delay = %v, want the default backoff", d)
	}
}

// TestShed503CountedNotFailed: overload 503s (breaker, draining) are
// shed like 429s, not errors.
func TestShed503CountedNotFailed(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{"error": "shed", "code": 503})
	}))
	defer ts.Close()

	var stdout strings.Builder
	if err := run([]string{
		"-url", ts.URL, "-ids", "E1", "-levels", "1", "-requests", "4",
		"-out", "-", "-warm=false",
	}, &stdout); err != nil {
		t.Fatalf("run treated 503 sheds as failure: %v", err)
	}
	if !strings.Contains(stdout.String(), `"shed": 4`) {
		t.Fatalf("stdout = %s, want 4 sheds", stdout.String())
	}
}

// TestTenantSoakMode: -tenants needs no -url, writes a byte-deterministic
// BENCH_TENANT.json, and passes the default fairness gates.
func TestTenantSoakMode(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(path string) {
		t.Helper()
		var stdout strings.Builder
		if err := run([]string{
			"-tenants", "-seed", "42", "-soak-duration", "2s", "-tenant-out", path,
		}, &stdout); err != nil {
			t.Fatalf("tenant soak: %v (stdout: %s)", err, stdout.String())
		}
		if !strings.Contains(stdout.String(), "tenant=wellbehaved") {
			t.Fatalf("stdout missing per-tenant summary: %s", stdout.String())
		}
	}
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	runOnce(a)
	runOnce(b)

	blobA, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	blobB, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(blobA) != string(blobB) {
		t.Fatal("same seed produced different BENCH_TENANT.json bytes")
	}
	var rep map[string]any
	if err := json.Unmarshal(blobA, &rep); err != nil {
		t.Fatalf("BENCH_TENANT.json invalid: %v", err)
	}
	if rep["schema_version"] != "pnserve-tenant/v1" {
		t.Fatalf("schema_version = %v, want pnserve-tenant/v1", rep["schema_version"])
	}
}

// TestTenantSoakGateFails: an unattainable fair-share requirement makes
// the soak exit non-zero — the CI gate has teeth.
func TestTenantSoakGateFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_TENANT.json")
	var stdout strings.Builder
	err := run([]string{
		"-tenants", "-seed", "42", "-soak-duration", "1s", "-tenant-out", path,
		"-min-fair-share", "1.01",
	}, &stdout)
	if err == nil || !strings.Contains(err.Error(), "fair share") {
		t.Fatalf("err = %v, want fair-share gate failure", err)
	}
	if _, statErr := os.Stat(path); statErr != nil {
		t.Fatal("artifact must be written even when the gate fails")
	}
}

func TestWorkloadIDKinds(t *testing.T) {
	if got := runURL("http://x", "E12", "", false); !strings.Contains(got, "experiment=E12") {
		t.Fatalf("E12 url = %s, want experiment param", got)
	}
	if got := runURL("http://x/", "bss-overflow", "low", false); !strings.Contains(got, "scenario=bss-overflow") ||
		!strings.Contains(got, "priority=low") || strings.Contains(got, "//run") {
		t.Fatalf("scenario url = %s", got)
	}
	if got := runURL("http://x", "E12", "", true); !strings.Contains(got, "no_cache=true") {
		t.Fatalf("no-cache url = %s, want no_cache param", got)
	}
}
