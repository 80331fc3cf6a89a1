package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/defense"
	"repro/internal/service"
)

// TestCompiledTierConcurrency hammers a Compiled server with
// concurrent /run and /runbatch traffic (NoCache, so every request
// actually executes and exercises the shared compiled-program cache)
// while an evictor loop concurrently drops program-cache entries, so
// programs are evicted while they execute. Run under -race (the CI
// test job always does), this
// is the data-race gate for the compiled tier; it also spot-checks
// that compiled responses match an interpreted server's byte-for-byte
// on the semantic fields.
func TestCompiledTierConcurrency(t *testing.T) {
	srv := NewServer(Config{
		Workers: 8, Queue: 256, CacheSize: 128, CacheTTL: time.Minute,
		Deadline: 20 * time.Second, MaxDeadline: 30 * time.Second,
		Compiled: true,
	})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Service().Drain()
	}()
	programs := srv.Service().Programs()
	if programs == nil {
		t.Fatal("Compiled server has no program cache")
	}

	scenarios := attack.Catalog()[:8]
	defs := []string{defense.None.Name, defense.StackGuardOnly.Name, defense.Hardened.Name}

	post := func(path string, body any) (*http.Response, error) {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		return http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	}

	var wg sync.WaitGroup
	var ok, shed, failed int64
	var mu sync.Mutex
	count := func(code int) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case code == http.StatusOK:
			ok++
		case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
			shed++
		default:
			failed++
		}
	}

	// Single-run traffic.
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				s := scenarios[(g+i)%len(scenarios)]
				req := service.Request{Scenario: s.ID, Defense: defs[i%len(defs)], NoCache: true}
				resp, err := post("/run", req)
				if err != nil {
					t.Errorf("POST /run: %v", err)
					return
				}
				resp.Body.Close()
				count(resp.StatusCode)
			}
		}(g)
	}

	// Batch traffic: every item executes concurrently server-side
	// against the same program cache.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				var batch struct {
					Requests []service.Request `json:"requests"`
				}
				for j := 0; j < 6; j++ {
					s := scenarios[(g+i+j)%len(scenarios)]
					batch.Requests = append(batch.Requests, service.Request{
						Scenario: s.ID, Defense: defs[j%len(defs)], NoCache: true,
					})
				}
				resp, err := post("/runbatch", batch)
				if err != nil {
					t.Errorf("POST /runbatch: %v", err)
					return
				}
				resp.Body.Close()
				count(resp.StatusCode)
			}
		}(g)
	}

	// The evictor loop: evict programs out from under in-flight
	// executions. Immutable programs make this safe; the next request
	// for an evicted key recompiles via singleflight.
	stop := make(chan struct{})
	var evWG sync.WaitGroup
	evWG.Add(1)
	go func() {
		defer evWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				programs.Evict(2)
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()

	wg.Wait()
	close(stop)
	evWG.Wait()

	if ok == 0 {
		t.Fatalf("no request succeeded (ok=%d shed=%d failed=%d)", ok, shed, failed)
	}
	if failed > 0 {
		t.Fatalf("hard failures under compiled concurrency: ok=%d shed=%d failed=%d", ok, shed, failed)
	}
	st := programs.Stats()
	if st.Misses == 0 || st.Evictions == 0 {
		t.Fatalf("program cache never exercised: %+v", st)
	}
}

// TestCompiledResponsesMatchInterpreted compares the semantic response
// fields of a compiled server against an interpreted one for a slice
// of the matrix — the HTTP-level face of the equivalence contract.
func TestCompiledResponsesMatchInterpreted(t *testing.T) {
	mk := func(compiled bool) (*Server, *httptest.Server) {
		srv := NewServer(Config{
			Workers: 4, Queue: 32, CacheSize: 64, CacheTTL: time.Minute,
			Deadline: 10 * time.Second, MaxDeadline: 30 * time.Second,
			Compiled: compiled,
		})
		return srv, httptest.NewServer(srv.Handler())
	}
	csrv, cts := mk(true)
	isrv, its := mk(false)
	defer func() {
		cts.Close()
		its.Close()
		csrv.Service().Drain()
		isrv.Service().Drain()
	}()

	semantic := func(base, scenario, def string) map[string]any {
		url := fmt.Sprintf("%s/run?scenario=%s&defense=%s", base, scenario, def)
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", url, resp.StatusCode)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		// Strip transport/timing fields; keep the semantic payload.
		for _, k := range []string{"cache", "compute_ns", "queue_ns", "serve_ns", "stages", "trace_id"} {
			delete(out, k)
		}
		return out
	}

	for _, s := range attack.Catalog()[:6] {
		for _, def := range []string{defense.None.Name, defense.Hardened.Name, defense.ShadowOnly.Name} {
			got := semantic(cts.URL, s.ID, def)
			want := semantic(its.URL, s.ID, def)
			gb, _ := json.Marshal(got)
			wb, _ := json.Marshal(want)
			if !bytes.Equal(gb, wb) {
				t.Errorf("%s/%s: compiled response %s != interpreted %s", s.ID, def, gb, wb)
			}
		}
	}
	if st := csrv.Service().Programs().Stats(); st.Misses == 0 {
		t.Fatalf("compiled server never compiled a program: %+v", st)
	}
}
