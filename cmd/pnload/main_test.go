package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeServe is a minimal pnserve stand-in: the first request per
// scenario is a miss, repeats are hits; when shedEvery > 0 every
// shedEvery-th request is shed with a 429.
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
		id := r.URL.Query().Get("scenario")
		mu.Lock()
		cache := "hit"
		if !seen[id] {
			seen[id], cache = true, "miss"
		}
		mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{"id": id, "status": "ok", "cache": cache})
	})
}

// TestShedCountedNotFailed: a structured 429 is classified as shed, not
// as a failure, and OK answers keep their cache classification.
func TestShedCountedNotFailed(t *testing.T) {
	ts := httptest.NewServer(fakeServe(3)) // every 3rd request shed
	defer ts.Close()

	u := ts.URL + "/run?scenario=stack-ret"
	var got []sample
	for i := 0; i < 3; i++ {
		got = append(got, issue(ts.Client(), u, "", 0, time.Second))
	}
	if !got[0].ok || got[0].cacheHit || got[0].shed {
		t.Fatalf("first request = %+v, want an OK miss", got[0])
	}
	if !got[1].ok || !got[1].cacheHit {
		t.Fatalf("second request = %+v, want an OK hit", got[1])
	}
	if got[2].ok || !got[2].shed {
		t.Fatalf("third request = %+v, want shed, not failed", got[2])
	}
	for i, s := range got {
		if s.latencyMS <= 0 {
			t.Errorf("request %d latency = %v, want > 0", i, s.latencyMS)
		}
	}
}

// TestRetriesHonorRetryAfter: with retries, a shed response is retried
// after the server's millisecond backoff hint and the retry is
// recorded; without retries the same response stays shed.
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

	u := ts.URL + "/run?scenario=stack-ret"
	for i := 0; i < 3; i++ {
		start := time.Now()
		s := issue(ts.Client(), u, "", 2, 2*time.Second)
		if !s.ok || s.shed || s.retries != 1 {
			t.Fatalf("request %d = %+v, want the shed retried once to success", i, s)
		}
		// The 5ms hint wins over the whole-second Retry-After.
		if waited := time.Since(start); waited < 5*time.Millisecond || waited >= time.Second {
			t.Fatalf("request %d waited %v, want the 5ms hint", i, waited)
		}
	}
	if s := issue(ts.Client(), u, "", 0, 2*time.Second); s.ok || !s.shed || s.retries != 0 {
		t.Fatalf("without retries = %+v, want shed", s)
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

	for i := 0; i < 4; i++ {
		if s := issue(ts.Client(), ts.URL+"/run?scenario=stack-ret", "", 0, time.Second); s.ok || !s.shed {
			t.Fatalf("request %d = %+v, want shed, not failed", i, s)
		}
	}
}
