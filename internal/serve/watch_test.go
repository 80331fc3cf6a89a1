package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

func newDeterministicServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(Config{
		Workers: 1, Queue: 16, CacheSize: 32,
		Deadline: 10 * time.Second, MaxDeadline: 30 * time.Second,
		Deterministic: true,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Service().Drain()
	})
	return srv, ts
}

// openWatch attaches an NDJSON /watch stream and returns a line
// scanner plus a closer.
func openWatch(t *testing.T, base, params string, header http.Header) (*bufio.Scanner, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/watch"+params, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	for k, vs := range header {
		req.Header[k] = vs
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		cancel()
		t.Fatalf("GET /watch = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		cancel()
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return sc, func() { cancel(); resp.Body.Close() }
}

// readUntilTraceEnd consumes stream lines through the first trace-end
// event, returning the raw lines (hello included).
func readUntilTraceEnd(t *testing.T, sc *bufio.Scanner) []string {
	t.Helper()
	deadline := time.After(10 * time.Second)
	lines := make(chan string)
	go func() {
		defer close(lines)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	var out []string
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("stream ended after %d lines without trace-end", len(out))
			}
			out = append(out, line)
			var ev obs.BusEvent
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("bad stream line %q: %v", line, err)
			}
			if ev.Kind == obs.KindTraceEnd {
				return out
			}
		case <-deadline:
			t.Fatalf("no trace-end within 10s; saw %d lines", len(out))
		}
	}
}

func TestWatchStreamsRun(t *testing.T) {
	_, ts := newDeterministicServer(t)
	sc, closeWatch := openWatch(t, ts.URL, "", nil)
	defer closeWatch()

	resp, err := http.Post(ts.URL+"/run?scenario=stack-ret", "application/json",
		strings.NewReader(`{"scenario":"stack-ret"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-PN-Trace-Id") == "" {
		t.Fatal("/run response missing the X-PN-Trace-Id echo")
	}

	lines := readUntilTraceEnd(t, sc)
	counts := map[string]int{}
	for _, line := range lines {
		var ev obs.BusEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		counts[ev.Kind]++
	}
	if counts[obs.KindHello] != 1 {
		t.Errorf("stream did not open with exactly one hello (saw %v)", counts)
	}
	for _, want := range []string{obs.KindSpanEnd, obs.KindHeat, obs.KindTraceEnd} {
		if counts[want] == 0 {
			t.Errorf("stream carried no %q events (saw %v)", want, counts)
		}
	}
}

func TestWatchSSEFormat(t *testing.T) {
	_, ts := newDeterministicServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/watch", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("default Content-Type = %q, want text/event-stream", ct)
	}
	// Generate one event and read the hello + first frames.
	go http.Get(ts.URL + "/run?experiment=E1")
	sc := bufio.NewScanner(resp.Body)
	var sawHello, sawID bool
	deadline := time.After(10 * time.Second)
	lines := make(chan string)
	go func() {
		defer close(lines)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	for !sawHello || !sawID {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("SSE stream ended early")
			}
			if strings.HasPrefix(line, "event: hello") {
				sawHello = true
			}
			if strings.HasPrefix(line, "id: ") {
				sawID = true
			}
		case <-deadline:
			t.Fatalf("no SSE frames within 10s (hello=%v id=%v)", sawHello, sawID)
		}
	}
}

func TestWatchFilters(t *testing.T) {
	_, ts := newDeterministicServer(t)
	sc, closeWatch := openWatch(t, ts.URL, "?kind=trace-end", nil)
	defer closeWatch()

	http.Get(ts.URL + "/run?scenario=bss-overflow")
	lines := readUntilTraceEnd(t, sc)
	for _, line := range lines {
		var ev obs.BusEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind != obs.KindTraceEnd && ev.Kind != obs.KindHello {
			t.Fatalf("kind filter leaked a %q event: %s", ev.Kind, line)
		}
	}
}

func TestWatchResume(t *testing.T) {
	_, ts := newDeterministicServer(t)

	// First subscriber watches a full run.
	sc, closeWatch := openWatch(t, ts.URL, "", nil)
	http.Get(ts.URL + "/run?scenario=bss-overflow")
	lines := readUntilTraceEnd(t, sc)
	closeWatch()

	// Find the seq halfway through and resume from it: replay must
	// continue exactly at seq+1.
	var mid uint64
	var ev obs.BusEvent
	if err := json.Unmarshal([]byte(lines[len(lines)/2]), &ev); err != nil {
		t.Fatal(err)
	}
	mid = ev.Seq
	if mid == 0 {
		t.Fatalf("mid-stream line had no seq: %s", lines[len(lines)/2])
	}

	h := http.Header{}
	h.Set("Last-Event-ID", fmt.Sprint(mid))
	sc2, closeWatch2 := openWatch(t, ts.URL, "", h)
	defer closeWatch2()
	replayed := readUntilTraceEnd(t, sc2)
	// Line 0 is hello; line 1 must be seq mid+1.
	if len(replayed) < 2 {
		t.Fatalf("resume replayed %d lines", len(replayed))
	}
	if err := json.Unmarshal([]byte(replayed[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Seq != mid+1 {
		t.Fatalf("resume after %d delivered seq %d first, want %d", mid, ev.Seq, mid+1)
	}
}

// TestWatchDeterministicDoubleRun is the acceptance-criteria gate in
// miniature: two fresh -deterministic servers, the same sequential
// request, byte-identical NDJSON streams.
func TestWatchDeterministicDoubleRun(t *testing.T) {
	render := func() []byte {
		_, ts := newDeterministicServer(t)
		sc, closeWatch := openWatch(t, ts.URL, "", nil)
		defer closeWatch()
		resp, err := http.Post(ts.URL+"/run", "application/json",
			strings.NewReader(`{"scenario":"stack-ret","defense":"nx"}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return []byte(strings.Join(readUntilTraceEnd(t, sc), "\n"))
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("deterministic double-run streams differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// TestTraceEndpointGolden pins the /trace/{id} JSON shape under the
// virtual clock. Regenerate with: go test ./internal/serve -run Golden -update
func TestTraceEndpointGolden(t *testing.T) {
	_, ts := newDeterministicServer(t)
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/run?scenario=bss-overflow&defense=nx", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TraceHeader, "t-golden")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/trace/t-golden")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /trace/t-golden = %d, want 200", resp.StatusCode)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "trace_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("/trace/{id} drifted from golden (regenerate with -update if intended):\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// Unknown IDs are a clean 404.
	resp, err = http.Get(ts.URL + "/trace/no-such-trace")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /trace/no-such-trace = %d, want 404", resp.StatusCode)
	}
}

// TestRunWatchRaceStress hammers /run while /watch subscribers attach,
// read, and detach — the HTTP-level half of the race stress (CI runs
// the suite under -race).
func TestRunWatchRaceStress(t *testing.T) {
	srv := NewServer(Config{
		Workers: 4, Queue: 32, CacheSize: 32,
		Deadline: 10 * time.Second, MaxDeadline: 30 * time.Second,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Service().Drain() })

	// A subscriber sees only events published after it attaches, so one
	// that attaches after the last run would wait forever for its 20
	// lines: every watch is closed once the runs are done.
	runsDone := make(chan struct{})
	var watchers sync.WaitGroup
	for c := 0; c < 3; c++ {
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			for r := 0; r < 3; r++ {
				sc, closeWatch := openWatch(t, ts.URL, "", nil)
				read, stopped := make(chan struct{}), make(chan struct{})
				go func() {
					defer close(stopped)
					select {
					case <-runsDone:
						closeWatch()
					case <-read:
					}
				}()
				for i := 0; i < 20 && sc.Scan(); i++ {
				}
				close(read)
				<-stopped
				closeWatch()
			}
		}()
	}
	var wg sync.WaitGroup
	scenarios := []string{"bss-overflow", "stack-ret", "heap-overflow"}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				url := ts.URL + "/run?no_cache=true&scenario=" + scenarios[i%len(scenarios)]
				resp, err := http.Get(url)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	close(runsDone)
	watchers.Wait()

	// The watch bus health metrics exist and the subscriber gauge has
	// returned to zero. A handler learns that its client left only
	// after the client has closed, so the gauge is polled.
	var text string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		text = string(raw)
		if strings.Contains(text, "pn_serve_watch_subscribers 0") || time.Now().After(deadline) {
			break
		}
	}
	for _, want := range []string{"pn_serve_watch_subscribers 0", "pn_build_info", "pn_serve_uptime_seconds"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
