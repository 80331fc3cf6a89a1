package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/service"
)

func testFleet(t *testing.T, n int) *Fleet {
	t.Helper()
	f := NewFleet(n, serve.Config{
		Workers: 4, Queue: 32, CacheSize: 64,
		Deadline: 10 * time.Second, MaxDeadline: 30 * time.Second,
	}, RouterConfig{Seed: 1})
	t.Cleanup(f.Close)
	return f
}

// runJSON issues one request through the router and decodes the body.
func runJSON(t *testing.T, f *Fleet, req service.Request, headers map[string]string) (int, map[string]any) {
	t.Helper()
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, f.URL()+"/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		hreq.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST /run: invalid JSON: %v", err)
	}
	return resp.StatusCode, out
}

// workerIndex maps a worker base URL back to its fleet slot.
func workerIndex(t *testing.T, f *Fleet, url string) int {
	t.Helper()
	for i := 0; i < f.Size(); i++ {
		if f.WorkerURL(i) == url {
			return i
		}
	}
	t.Fatalf("no fleet worker with URL %s", url)
	return -1
}

// diverseRequest builds the i-th of a family of requests with distinct
// cache keys that still succeed deterministically: repeat > 1 is part
// of the key (a seed without chaos is normalized out, and chaos runs
// can legitimately die).
func diverseRequest(seed int64) service.Request {
	return service.Request{Scenario: "stack-ret", Repeat: int(seed%255) + 2}
}

// requestOwnedBy searches seeded requests for one whose
// content-addressed key lands on worker i's shard.
func requestOwnedBy(t *testing.T, f *Fleet, i int) (service.Request, string) {
	t.Helper()
	ring := f.Router().Membership().Ring()
	for seed := int64(1); seed < 200; seed++ {
		req := diverseRequest(seed)
		key, err := service.Key(req)
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(key) == f.WorkerURL(i) {
			return req, key
		}
	}
	t.Fatalf("no stack-ret seed in 1..200 owned by worker %d", i)
	return service.Request{}, ""
}

func TestRouterForwardsAndCaches(t *testing.T) {
	f := testFleet(t, 3)

	code, first := runJSON(t, f, service.Request{Experiment: "E1"}, nil)
	if code != http.StatusOK || first["cache"] != "miss" || first["id"] != "E1" {
		t.Fatalf("first = %d %v", code, first)
	}
	code, second := runJSON(t, f, service.Request{Experiment: "E1"}, nil)
	if code != http.StatusOK || second["cache"] != "hit" {
		t.Fatalf("second = %d cache=%v, want 200 hit (same ring owner)", code, second["cache"])
	}
	if first["key"] != second["key"] {
		t.Fatalf("keys differ: %v vs %v", first["key"], second["key"])
	}

	// Exactly one worker executed and cached it: the ring maps one key
	// to one shard.
	holders := 0
	key := first["key"].(string)
	for i := 0; i < f.Size(); i++ {
		if _, ok := f.Worker(i).Service().Cache().Get(key); ok {
			holders++
		}
	}
	if holders != 1 {
		t.Fatalf("%d workers hold key %s, want exactly 1", holders, key)
	}
}

// TestRouterSingleflightCollapsesSameKey: concurrent same-key requests
// through the router execute once fleet-wide. The router forwards each
// one to the key's owner, whose cache singleflight runs the one miss;
// the others wait on that flight (coalesced) or read its result (hit).
func TestRouterSingleflightCollapsesSameKey(t *testing.T) {
	f := testFleet(t, 2)

	const n = 8
	results := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, out := runJSON(t, f, service.Request{Experiment: "E8"}, nil)
			if code == http.StatusOK {
				results[i], _ = out["cache"].(string)
			}
		}(i)
	}
	wg.Wait()

	counts := map[string]int{}
	for _, c := range results {
		counts[c]++
	}
	if counts["miss"] != 1 {
		t.Fatalf("cache tokens %v: want exactly one miss fleet-wide", counts)
	}
	// Everyone else joined the leader's forward or hit the cache it
	// filled; nothing executed twice.
	if counts["miss"]+counts["coalesced"]+counts["hit"] != n {
		t.Fatalf("cache tokens %v: unexpected token mix", counts)
	}
}

// TestCoalescedFollowerKeepsItsTrace: same-key requests that collapse
// into one execution each answer under their own client trace ID, in
// the body and the header, and /trace/{id} serves every one of them.
func TestCoalescedFollowerKeepsItsTrace(t *testing.T) {
	f := testFleet(t, 2)

	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := range ids {
		ids[i] = fmt.Sprintf("t-follower-%d", i)
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			hreq, err := http.NewRequest(http.MethodPost, f.URL()+"/run",
				strings.NewReader(`{"scenario":"dos-exhaust","repeat":8}`))
			if err != nil {
				t.Error(err)
				return
			}
			hreq.Header.Set(serve.TraceHeader, id)
			resp, err := http.DefaultClient.Do(hreq)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var out map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Errorf("%s: invalid JSON: %v", id, err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: run = %d %v", id, resp.StatusCode, out)
				return
			}
			if out["trace_id"] != id || resp.Header.Get(serve.TraceHeader) != id {
				t.Errorf("%s: answered as trace_id %v, %s %q (cache %v)",
					id, out["trace_id"], serve.TraceHeader, resp.Header.Get(serve.TraceHeader), out["cache"])
			}
		}(ids[i])
	}
	wg.Wait()

	for _, id := range ids {
		resp, err := http.Get(f.URL() + "/trace/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var tr service.RequestTrace
		err = json.NewDecoder(resp.Body).Decode(&tr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil || tr.TraceID != id {
			t.Errorf("GET /trace/%s = %d (decode %v, trace %q), want 200 with its own trace",
				id, resp.StatusCode, err, tr.TraceID)
		}
	}
}

// TestRouterBodiesFramedLikeWorkers: an error the router answers itself
// is the body a worker gives for the same error, on /run and for each
// kind of malformed /runbatch.
func TestRouterBodiesFramedLikeWorkers(t *testing.T) {
	f := testFleet(t, 1)
	send := func(method, url, body string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}

	items := strings.TrimSuffix(strings.Repeat(`{"experiment":"E1"},`, service.MaxBatchSize+1), ",")
	for _, c := range []struct{ name, method, path, body string }{
		{"unknown scenario", http.MethodPost, "/run", `{"scenario":"no-such-attack"}`},
		{"batch by GET", http.MethodGet, "/runbatch", ""},
		{"batch unknown field", http.MethodPost, "/runbatch", `{"requests":[{"experiment":"E1"}],"extra":1}`},
		{"empty batch", http.MethodPost, "/runbatch", `{"requests":[]}`},
		{"oversized batch", http.MethodPost, "/runbatch", `{"requests":[` + items + `]}`},
	} {
		wcode, wbody := send(c.method, f.WorkerURL(0)+c.path, c.body)
		rcode, rbody := send(c.method, f.URL()+c.path, c.body)
		if wcode != http.StatusBadRequest || rcode != wcode || !bytes.Equal(rbody, wbody) {
			t.Errorf("%s: router %d %q, worker %d %q: want one 400 body", c.name, rcode, rbody, wcode, wbody)
		}
	}
}

func TestDrainMigratesShardByCloning(t *testing.T) {
	f := testFleet(t, 3)

	// Find a key owned by worker 0 and warm its cache.
	req, key := requestOwnedBy(t, f, 0)
	code, first := runJSON(t, f, req, nil)
	if code != http.StatusOK || first["cache"] != "miss" {
		t.Fatalf("warmup = %d %v", code, first)
	}

	// Drain the owner. The router notices on the next probe, ejects it,
	// and the ring re-resolves; the drained listener stays up.
	f.DrainWorker(0)
	f.Router().Membership().ProbeAll()
	if got := f.Router().Membership().HealthyCount(); got != 2 {
		t.Fatalf("healthy after drain = %d, want 2", got)
	}
	newOwner := f.Router().Membership().Ring().Owner(key)
	if newOwner == f.WorkerURL(0) {
		t.Fatal("drained worker still owns the key")
	}

	// The same request now routes to the successor, which clones the
	// drained worker's warm entry instead of recomputing.
	code, second := runJSON(t, f, req, nil)
	if code != http.StatusOK {
		t.Fatalf("post-drain = %d %v", code, second)
	}
	if second["cache"] != "cloned" {
		t.Fatalf("post-drain cache = %v, want cloned (fill-from migration)", second["cache"])
	}
	if _, ok := f.Worker(workerIndex(t, f, newOwner)).Service().Cache().Get(key); !ok {
		t.Fatal("successor did not retain the cloned entry")
	}

	// Third time is a plain local hit on the new owner.
	code, third := runJSON(t, f, req, nil)
	if code != http.StatusOK || third["cache"] != "hit" {
		t.Fatalf("third = %d cache=%v, want 200 hit", code, third["cache"])
	}
}

func TestKilledWorkerLosesNoAdmittedRequests(t *testing.T) {
	f := testFleet(t, 3)

	// Concurrent distinct-key traffic while one worker dies mid-stream:
	// forwards to the dead worker must eject it and re-route, so every
	// admitted request still answers 200.
	const n = 40
	var failures atomic.Int32
	var wg sync.WaitGroup
	var once sync.Once
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == n/2 {
				once.Do(func() { f.KillWorker(1) })
			}
			code, out := runJSON(t, f, diverseRequest(int64(1000+i)), nil)
			if code != http.StatusOK {
				failures.Add(1)
				t.Logf("request %d: %d %v", i, code, out)
			}
		}(i)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d admitted requests failed across the kill", failures.Load())
	}
	mems := f.Router().Membership().Members()
	for _, m := range mems {
		if m.ID == f.WorkerURL(1) && m.State == StateHealthy {
			t.Fatalf("killed worker still healthy: %+v", mems)
		}
	}
}

func TestMembershipProbeTransitions(t *testing.T) {
	// A worker whose /readyz answer is scripted, plus a real one.
	var mode atomic.Value // "ok", "draining", "saturated", "down"
	mode.Store("ok")
	scripted := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch mode.Load() {
		case "draining":
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"status":"draining","draining":true,"saturated":false}`)
		case "saturated":
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"status":"saturated","draining":false,"saturated":true}`)
		case "down":
			panic(http.ErrAbortHandler)
		default:
			io.WriteString(w, `{"status":"ready"}`)
		}
	}))
	defer scripted.Close()

	m := NewMembership(MembershipConfig{Seed: 1, FailThreshold: 2, Registry: obs.NewRegistry()},
		[]string{scripted.URL})
	defer m.Close()
	if m.HealthyCount() != 1 {
		t.Fatalf("initial healthy = %d", m.HealthyCount())
	}

	// Saturated: alive but shedding — stays on the ring.
	mode.Store("saturated")
	m.ProbeAll()
	if m.HealthyCount() != 1 {
		t.Fatal("saturated worker was ejected; it should keep its shard")
	}

	// Draining: ejected immediately.
	mode.Store("draining")
	m.ProbeAll()
	if m.HealthyCount() != 0 {
		t.Fatal("draining worker stayed on the ring")
	}
	if st := m.Members()[0].State; st != StateDraining {
		t.Fatalf("state = %s, want draining", st)
	}

	// Recovery: one clean probe re-admits.
	mode.Store("ok")
	m.ProbeAll()
	if m.HealthyCount() != 1 {
		t.Fatal("recovered worker was not re-admitted")
	}

	// Crash: ejection needs FailThreshold consecutive misses.
	mode.Store("down")
	m.ProbeAll()
	if m.HealthyCount() != 1 {
		t.Fatal("one missed probe ejected below threshold")
	}
	m.ProbeAll()
	if m.HealthyCount() != 0 {
		t.Fatal("threshold missed probes did not eject")
	}
	if st := m.Members()[0].State; st != StateUnhealthy {
		t.Fatalf("state = %s, want unhealthy", st)
	}

	// Push heartbeat re-admits without waiting for a probe.
	m.Join(scripted.URL)
	if m.HealthyCount() != 1 {
		t.Fatal("join did not re-admit")
	}
}

func TestJoinEndpointAdmitsNewWorker(t *testing.T) {
	f := testFleet(t, 2)

	// A third worker appears and push-heartbeats the router.
	w := serve.NewServer(serve.Config{Workers: 2, Queue: 8, CacheSize: 16, TrustAdmitted: true})
	ts := httptest.NewServer(w.Handler())
	defer func() { ts.Close(); w.Service().Drain() }()

	resp, err := http.Post(f.URL()+"/cluster/join", "application/json",
		strings.NewReader(fmt.Sprintf("{\"id\":%q}", ts.URL)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join = %d", resp.StatusCode)
	}
	if got := f.Router().Membership().HealthyCount(); got != 3 {
		t.Fatalf("healthy after join = %d, want 3", got)
	}

	var members membersResponse
	mresp, err := http.Get(f.URL() + "/cluster/members")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if err := json.NewDecoder(mresp.Body).Decode(&members); err != nil {
		t.Fatal(err)
	}
	if len(members.Ring.Nodes) != 3 || len(members.Members) != 3 {
		t.Fatalf("members body = %+v", members)
	}
}

func TestRouterAdmissionQuota(t *testing.T) {
	f := NewFleet(1, serve.Config{Workers: 2, Queue: 8, CacheSize: 16},
		RouterConfig{Seed: 1, TenantRate: 0.001, TenantBurst: 2})
	t.Cleanup(f.Close)

	codes := map[int]int{}
	var sawReason string
	for i := 0; i < 4; i++ {
		code, out := runJSON(t, f, service.Request{Scenario: "stack-ret", Seed: int64(i), NoCache: true}, nil)
		codes[code]++
		if code == http.StatusTooManyRequests {
			rej, _ := out["reject"].(map[string]any)
			sawReason, _ = rej["reason"].(string)
		}
	}
	if codes[http.StatusTooManyRequests] != 2 || codes[http.StatusOK] != 2 {
		t.Fatalf("codes = %v, want 2x200 then 2x429 (burst 2)", codes)
	}
	if sawReason != service.ReasonQuota {
		t.Fatalf("shed reason = %q, want %q", sawReason, service.ReasonQuota)
	}
}

func TestTracePropagatesAcrossTheHop(t *testing.T) {
	f := testFleet(t, 3)

	code, out := runJSON(t, f, service.Request{Experiment: "E3"},
		map[string]string{serve.TraceHeader: "t-cluster-1", serve.TenantHeader: "acme"})
	if code != http.StatusOK {
		t.Fatalf("run = %d %v", code, out)
	}
	if out["trace_id"] != "t-cluster-1" {
		t.Fatalf("trace_id = %v, want the client-supplied id", out["trace_id"])
	}

	resp, err := http.Get(f.URL() + "/trace/t-cluster-1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /trace = %d", resp.StatusCode)
	}
	var tr service.RequestTrace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.TraceID != "t-cluster-1" || tr.Tenant != "acme" {
		t.Fatalf("grafted trace identity = %s/%s", tr.TraceID, tr.Tenant)
	}
	if tr.Root == nil || tr.Root.Name != "router" {
		t.Fatalf("root span = %+v, want router", tr.Root)
	}
	if len(tr.Root.Children) != 1 || tr.Root.Children[0].Name != "forward" {
		t.Fatalf("router children = %+v, want one forward span", tr.Root.Children)
	}
	fwd := tr.Root.Children[0]
	if fwd.Attrs["worker"] == "" {
		t.Fatal("forward span missing worker attr")
	}
	if len(fwd.Children) == 0 {
		t.Fatal("forward span has no worker subtree")
	}
	if _, ok := tr.StageMS["forward"]; !ok {
		t.Fatalf("stage map %v missing forward", tr.StageMS)
	}
	if _, ok := tr.StageMS["execute"]; !ok {
		t.Fatalf("stage map %v missing the worker's execute stage", tr.StageMS)
	}
}

func TestWatchFansInWorkerStreams(t *testing.T) {
	f := testFleet(t, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.URL()+"/watch?trace=t-watch-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch = %d", resp.StatusCode)
	}

	events := make(chan obs.BusEvent, 64)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ev obs.BusEvent
			if json.Unmarshal(sc.Bytes(), &ev) == nil {
				events <- ev
			}
		}
		close(events)
	}()

	hello := <-events
	if hello.Kind != obs.KindHello || hello.Data["cluster"] != "router" || hello.Data["workers"] != "2" {
		t.Fatalf("hello = %+v", hello)
	}

	// The subscription reaches each worker asynchronously; give the
	// relays a moment before generating the traffic they should see.
	time.Sleep(200 * time.Millisecond)
	code, _ := runJSON(t, f, service.Request{Experiment: "E2"},
		map[string]string{serve.TraceHeader: "t-watch-1"})
	if code != http.StatusOK {
		t.Fatalf("run = %d", code)
	}

	sawEnd := false
	for !sawEnd {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("stream closed before trace-end")
			}
			if ev.Trace != "" && ev.Trace != "t-watch-1" {
				t.Fatalf("filter leaked foreign trace %q", ev.Trace)
			}
			if ev.Data["worker"] == "" {
				t.Fatalf("event %+v missing worker origin tag", ev)
			}
			if ev.Kind == obs.KindTraceEnd {
				sawEnd = true
			}
		case <-ctx.Done():
			t.Fatal("no trace-end before timeout")
		}
	}
	cancel()
}

func TestRunBatchRoutesPerItem(t *testing.T) {
	f := testFleet(t, 3)

	body := `{"requests":[{"experiment":"E1"},{"experiment":"E99"},{"scenario":"stack-ret","seed":42}]}`
	resp, err := http.Post(f.URL()+"/runbatch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("runbatch = %d", resp.StatusCode)
	}
	var out serve.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.OK != 2 || out.Failed != 1 || len(out.Results) != 3 {
		t.Fatalf("batch = ok %d failed %d (%d items)", out.OK, out.Failed, len(out.Results))
	}
	if out.Results[1].Code != http.StatusBadRequest {
		t.Fatalf("bad item code = %d, want 400", out.Results[1].Code)
	}
	if out.Results[0].Code != http.StatusOK || out.Results[2].Code != http.StatusOK {
		t.Fatalf("good items = %d/%d", out.Results[0].Code, out.Results[2].Code)
	}
}

// TestRebalanceDuringTrafficIsRaceFree hammers membership changes
// against in-flight routing; run under -race it pins the immutable-ring
// contract (routing never sees a half-built ring).
func TestRebalanceDuringTrafficIsRaceFree(t *testing.T) {
	f := testFleet(t, 3)
	mem := f.Router().Membership()

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := f.WorkerURL(i % f.Size())
			if i%2 == 0 {
				mem.MarkFailed(id)
			} else {
				mem.Join(id)
			}
			mem.Ring().Owner(fmt.Sprintf("churn-%d", i))
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				runJSON(t, f, diverseRequest(int64(i*100+j)), nil)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	churn.Wait()

	// Converge: every worker re-joins, traffic flows.
	for i := 0; i < f.Size(); i++ {
		mem.Join(f.WorkerURL(i))
	}
	code, out := runJSON(t, f, service.Request{Experiment: "E1"}, nil)
	if code != http.StatusOK {
		t.Fatalf("post-churn run = %d %v", code, out)
	}
}

func TestReadyzReportsNoWorkers(t *testing.T) {
	f := testFleet(t, 1)
	f.Router().Membership().MarkFailed(f.WorkerURL(0))

	resp, err := http.Get(f.URL() + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d, want 503", resp.StatusCode)
	}
	var body serve.ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "no-workers" || body.Draining {
		t.Fatalf("readyz body = %+v", body)
	}
}
