package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/service"
)

// RouterConfig assembles a Router.
type RouterConfig struct {
	// Workers are the initial backend base URLs; more can join via
	// POST /cluster/join.
	Workers []string
	// HeartbeatInterval is the membership probe period (default 500ms).
	HeartbeatInterval time.Duration
	// ForwardRetries is how many extra attempts a failed forward gets
	// after re-resolving the ring (default 2) — the kill-a-worker path:
	// attempt, eject, re-route to the successor.
	ForwardRetries int
	// Router-level admission: tenant quotas run HERE and only here —
	// workers behind the router trust the X-PN-Admitted hop header, so
	// fleet accounting never double-counts.
	TenantRate  float64
	TenantBurst float64
}

const (
	// ringSeed is the router ring's placement seed: every router places
	// the same workers the same way. The ring has DefaultVNodes virtual
	// nodes per worker, and a worker leaves it after the membership
	// default of 2 consecutive missed probes.
	ringSeed uint64 = 1
	// forwardTimeout bounds one forwarded request.
	forwardTimeout = 30 * time.Second
	// traceIndexCap bounds the trace-to-worker index behind /trace/{id}.
	traceIndexCap = 512
)

func (c RouterConfig) withDefaults() RouterConfig {
	if c.ForwardRetries <= 0 {
		c.ForwardRetries = 2
	}
	return c
}

// traceEntry records where a trace executed and what the hop cost, for
// the /trace/{id} graft.
type traceEntry struct {
	id      string
	worker  string
	durMS   float64
	retries int
}

// Router is the sharded serving tier's front end: it owns admission
// (tenant quotas), routes every request to the ring owner of its
// content-addressed cache key, and retries around dead or draining
// workers after a ring rebalance. Concurrent same-key requests all
// reach that owner, whose cache runs one execution for them.
type Router struct {
	cfg    RouterConfig
	mem    *Membership
	reg    *obs.Registry
	client *http.Client
	quotas *service.TenantQuotas

	draining atomic.Bool
	started  time.Time

	tmu        sync.Mutex
	traceIndex map[string]*traceEntry
	traceOrder []string // FIFO eviction
}

// NewRouter builds a router over the initial workers. Call
// StartHeartbeat to arm membership probing; Close to stop it.
func NewRouter(cfg RouterConfig) *Router {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	describeRouterMetrics(reg)
	r := &Router{
		cfg:     cfg,
		reg:     reg,
		client:  &http.Client{Timeout: forwardTimeout},
		quotas:  service.NewTenantQuotas(service.QuotaConfig{Rate: cfg.TenantRate, Burst: cfg.TenantBurst}, time.Now),
		started: time.Now(),

		traceIndex: make(map[string]*traceEntry),
	}
	r.mem = NewMembership(MembershipConfig{
		Seed:     ringSeed,
		Interval: cfg.HeartbeatInterval,
		Registry: reg,
	}, cfg.Workers)
	return r
}

func describeRouterMetrics(reg *obs.Registry) {
	reg.Describe(obs.MetricClusterRingNodes, "healthy workers on the consistent-hash ring", obs.TypeGauge)
	reg.Describe(obs.MetricClusterMembers, "cluster members, by state", obs.TypeGauge)
	reg.Describe(obs.MetricClusterForwards, "forwarded requests, by worker and outcome", obs.TypeCounter)
	reg.Describe(obs.MetricClusterForwardRetries, "forward attempts repeated after a failed or draining worker", obs.TypeCounter)
	reg.Describe(obs.MetricClusterForwardLatency, "forward round-trip in milliseconds",
		obs.TypeHistogram, 0.25, 1, 2, 5, 10, 25, 50, 100, 250, 1000, 5000)
	reg.Describe(obs.MetricClusterRebalances, "ring rebalances, by reason", obs.TypeCounter)
	reg.Describe(obs.MetricClusterShed, "requests shed at the router, by reason", obs.TypeCounter)
	reg.Describe(obs.MetricBuildInfo, "build identity: constant 1 with version labels", obs.TypeGauge)
}

// Membership exposes the member table (for /cluster endpoints, the
// fleet harness, and tests).
func (rt *Router) Membership() *Membership { return rt.mem }

// Registry exposes the router's metrics registry.
func (rt *Router) Registry() *obs.Registry { return rt.reg }

// StartHeartbeat arms background membership probing.
func (rt *Router) StartHeartbeat() { rt.mem.Start() }

// Close stops membership probing.
func (rt *Router) Close() { rt.mem.Close() }

// SetDraining flips the router's draining flag.
func (rt *Router) SetDraining(v bool) { rt.draining.Store(v) }

// Handler returns the router's endpoint mux. /run and /runbatch
// forward to ring owners; the catalogue, health, metrics, and cluster
// introspection are served locally; /watch fans in every worker's
// stream and /trace/{id} grafts the worker trace under a router span.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", rt.handleRun)
	mux.HandleFunc("/runbatch", rt.handleRunBatch)
	mux.HandleFunc("/experiments", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, serve.BuildCatalog())
	})
	mux.HandleFunc("/healthz", rt.handleHealth)
	mux.HandleFunc("/readyz", rt.handleReady)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	mux.HandleFunc("/cluster/members", rt.handleMembers)
	mux.HandleFunc("/cluster/join", rt.handleJoin)
	mux.HandleFunc("/watch", rt.handleWatch)
	mux.HandleFunc("/trace/", rt.handleTrace)
	return mux
}

// routed is one request's final wire answer, whoever produced it.
type routed struct {
	status int
	header http.Header // Retry-After, X-PN-Retry-After-MS, X-PN-Trace-Id
	body   []byte
}

func routedError(code int, msg string, rej *service.Rejection) *routed {
	// An ErrorResponse of strings, ints and a Rejection always encodes.
	b, _ := serve.EncodeJSON(serve.ErrorResponse{Error: msg, Code: code, Reject: rej})
	h := http.Header{}
	if rej != nil {
		h.Set("Retry-After", strconv.FormatInt((rej.RetryAfterMS+999)/1000, 10))
		h.Set("X-PN-Retry-After-MS", strconv.FormatInt(rej.RetryAfterMS, 10))
	}
	return &routed{status: code, header: h, body: b}
}

func (rt *Router) shed(reason string, tenant string, lane string, retryAfter time.Duration) *routed {
	rt.reg.Inc(obs.MetricClusterShed, obs.L("reason", reason))
	ms := retryAfter.Milliseconds()
	if ms <= 0 {
		ms = 1
	}
	code := http.StatusTooManyRequests
	if reason == service.ReasonDraining {
		code = http.StatusServiceUnavailable
	}
	rej := &service.Rejection{Code: code, Reason: reason, Tenant: tenant, Lane: lane, RetryAfterMS: ms}
	return routedError(code, "router: "+reason, rej)
}

// routeRun is the single-request pipeline both /run and /runbatch
// items go through: validate and key the request at the edge, admit it
// (quota — the only quota in the fleet), then forward it to the ring
// owner. Same-key requests are collapsed there, by the owner's cache,
// not here, so each answer keeps its own trace.
func (rt *Router) routeRun(ctx context.Context, req service.Request, tenant, clientTrace string) *routed {
	key, err := service.Key(req)
	if err != nil {
		return routedError(http.StatusBadRequest, err.Error(), nil)
	}
	tenant = service.NormalizeTenant(tenant)
	lane := req.Priority
	if lane == "" {
		lane = "normal"
	}

	if ok, wait := rt.quotas.TryTake(tenant); !ok {
		return rt.shed(service.ReasonQuota, tenant, lane, wait)
	}
	return rt.forwardRun(ctx, req, key, tenant, clientTrace)
}

// forwardRun sends one admitted request to the ring owner of its key,
// retrying through membership changes: a connection failure ejects the
// worker and re-resolves the ring (the kill-mid-sweep path); a
// draining 503 ejects it and re-routes the same way. The hop carries
// X-PN-Admitted (skip worker admission), the tenant and trace
// identities, and — when the key just moved shards — an X-PN-Fill-From
// hint naming the previous owner so the new owner clones instead of
// recomputing.
func (rt *Router) forwardRun(ctx context.Context, req service.Request, key, tenant, clientTrace string) *routed {
	body, err := json.Marshal(req)
	if err != nil {
		return routedError(http.StatusInternalServerError, err.Error(), nil)
	}
	attempts := rt.cfg.ForwardRetries + 1
	start := time.Now()
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			rt.reg.Inc(obs.MetricClusterForwardRetries)
		}
		owner := rt.mem.Ring().Owner(key)
		if owner == "" {
			return routedError(http.StatusServiceUnavailable, "router: no healthy workers",
				&service.Rejection{Code: 503, Reason: service.ReasonDraining, Tenant: tenant,
					RetryAfterMS: service.ShedRetryAfter.Milliseconds()})
		}
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+"/run", bytes.NewReader(body))
		if err != nil {
			return routedError(http.StatusInternalServerError, err.Error(), nil)
		}
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set(serve.AdmittedHeader, "1")
		hreq.Header.Set(serve.TenantHeader, tenant)
		if clientTrace != "" {
			hreq.Header.Set(serve.TraceHeader, clientTrace)
		}
		if fill := rt.mem.FillFrom(key, owner); fill != "" {
			hreq.Header.Set(serve.FillFromHeader, fill)
		}
		resp, err := rt.client.Do(hreq)
		if err != nil {
			if ctx.Err() != nil {
				return routedError(499, ctx.Err().Error(), nil)
			}
			// The worker is unreachable: eject it so the ring re-resolves
			// to its successor, and try again.
			rt.mem.MarkFailed(owner)
			rt.reg.Inc(obs.MetricClusterForwards, obs.L("worker", owner), obs.L("outcome", "error"))
			lastErr = err
			continue
		}
		respBody, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
		resp.Body.Close()
		if err != nil {
			rt.mem.MarkFailed(owner)
			rt.reg.Inc(obs.MetricClusterForwards, obs.L("worker", owner), obs.L("outcome", "error"))
			lastErr = err
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable && isDraining(respBody) {
			// Graceful drain: the worker finishes its queued work but takes
			// no more. Eject it (new owner inherits the shard, fill-from
			// points back at the drainer) and re-route this request.
			rt.mem.MarkDraining(owner)
			rt.reg.Inc(obs.MetricClusterForwards, obs.L("worker", owner), obs.L("outcome", "draining"))
			lastErr = fmt.Errorf("worker %s draining", owner)
			continue
		}

		outcome := "ok"
		if resp.StatusCode >= 400 {
			outcome = strconv.Itoa(resp.StatusCode)
		}
		durMS := float64(time.Since(start).Microseconds()) / 1000
		rt.reg.Inc(obs.MetricClusterForwards, obs.L("worker", owner), obs.L("outcome", outcome))
		rt.reg.Observe(obs.MetricClusterForwardLatency, durMS)

		h := http.Header{}
		for _, k := range []string{serve.TraceHeader, "Retry-After", "X-PN-Retry-After-MS"} {
			if v := resp.Header.Get(k); v != "" {
				h.Set(k, v)
			}
		}
		if tid := resp.Header.Get(serve.TraceHeader); tid != "" {
			rt.recordTrace(&traceEntry{id: tid, worker: owner, durMS: durMS, retries: attempt})
		}
		return &routed{status: resp.StatusCode, header: h, body: respBody}
	}
	return routedError(http.StatusBadGateway,
		fmt.Sprintf("router: forward failed after %d attempts: %v", attempts, lastErr), nil)
}

// isDraining reports whether an error body carries the structured
// draining rejection.
func isDraining(body []byte) bool {
	var er serve.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		return false
	}
	return er.Reject != nil && er.Reject.Reason == service.ReasonDraining
}

func (rt *Router) recordTrace(e *traceEntry) {
	rt.tmu.Lock()
	defer rt.tmu.Unlock()
	if _, ok := rt.traceIndex[e.id]; !ok {
		rt.traceOrder = append(rt.traceOrder, e.id)
		for len(rt.traceOrder) > traceIndexCap {
			delete(rt.traceIndex, rt.traceOrder[0])
			rt.traceOrder = rt.traceOrder[1:]
		}
	}
	rt.traceIndex[e.id] = e
}

func (rt *Router) lookupTrace(id string) (*traceEntry, bool) {
	rt.tmu.Lock()
	defer rt.tmu.Unlock()
	e, ok := rt.traceIndex[id]
	return e, ok
}

func (rt *Router) handleRun(w http.ResponseWriter, r *http.Request) {
	if rt.draining.Load() {
		serve.WriteJSON(w, http.StatusServiceUnavailable, serve.ErrorResponse{
			Error: "router draining", Code: http.StatusServiceUnavailable,
			Reject: &service.Rejection{Code: 503, Reason: service.ReasonDraining,
				Tenant: service.NormalizeTenant(r.Header.Get(serve.TenantHeader))},
		})
		return
	}
	req, err := serve.ParseRequest(r)
	if err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: err.Error(), Code: http.StatusBadRequest})
		return
	}
	out := rt.routeRun(r.Context(), req, r.Header.Get(serve.TenantHeader), r.Header.Get(serve.TraceHeader))
	writeRouted(w, out)
}

func writeRouted(w http.ResponseWriter, out *routed) {
	for k, vs := range out.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(out.status)
	w.Write(out.body)
}

// handleRunBatch fans a batch out item-by-item: every item is admitted
// and routed independently (its own key and owner), then the answers
// reassemble in request order — the batch contract (per-item status,
// one bad item never fails its siblings) holds across the fleet. A
// client trace ID names the batch, not any one item, so items forward
// without one and each worker mints its own, as a worker's /runbatch
// does.
func (rt *Router) handleRunBatch(w http.ResponseWriter, r *http.Request) {
	if rt.draining.Load() {
		serve.WriteJSON(w, http.StatusServiceUnavailable, serve.ErrorResponse{
			Error: "router draining", Code: http.StatusServiceUnavailable,
			Reject: &service.Rejection{Code: 503, Reason: service.ReasonDraining,
				Tenant: service.NormalizeTenant(r.Header.Get(serve.TenantHeader))},
		})
		return
	}
	breq, err := serve.ParseBatch(r)
	if err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: err.Error(), Code: http.StatusBadRequest})
		return
	}

	tenant := r.Header.Get(serve.TenantHeader)
	start := time.Now()
	items := make([]serve.BatchItem, len(breq.Requests))
	var wg sync.WaitGroup
	for i := range breq.Requests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out := rt.routeRun(r.Context(), breq.Requests[i], tenant, "")
			items[i] = toBatchItem(out)
		}(i)
	}
	wg.Wait()

	resp := serve.BatchResponse{Results: items}
	for _, it := range items {
		if it.Code == http.StatusOK {
			resp.OK++
		} else {
			resp.Failed++
		}
	}
	resp.ServeNS = time.Since(start).Nanoseconds()
	serve.WriteJSON(w, http.StatusOK, resp)
}

// toBatchItem converts one routed answer into the batch item shape.
func toBatchItem(out *routed) serve.BatchItem {
	if out.status == http.StatusOK {
		var env serve.RunResponse
		if err := json.Unmarshal(out.body, &env); err == nil {
			return serve.BatchItem{Result: env.Result, Cache: env.Cache, Code: http.StatusOK}
		}
		return serve.BatchItem{Error: "router: unparseable worker response", Code: http.StatusBadGateway}
	}
	var er serve.ErrorResponse
	if err := json.Unmarshal(out.body, &er); err != nil {
		return serve.BatchItem{Error: "router: unparseable worker error", Code: out.status}
	}
	return serve.BatchItem{Error: er.Error, Code: out.status, Reject: er.Reject}
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if rt.draining.Load() {
		status = "draining"
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"status":    status,
		"role":      "router",
		"workers":   rt.mem.HealthyCount(),
		"uptime_ms": time.Since(rt.started).Milliseconds(),
	})
}

func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	resp := serve.ReadyResponse{
		Status:   "ready",
		Draining: rt.draining.Load(),
		UptimeMS: time.Since(rt.started).Milliseconds(),
	}
	code := http.StatusOK
	switch {
	case resp.Draining:
		resp.Status, code = "draining", http.StatusServiceUnavailable
	case rt.mem.HealthyCount() == 0:
		resp.Status, code = "no-workers", http.StatusServiceUnavailable
	}
	serve.WriteJSON(w, code, resp)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, rt.reg.Exposition())
}

// membersResponse is the GET /cluster/members body.
type membersResponse struct {
	Members []Member `json:"members"`
	Ring    struct {
		Seed   uint64   `json:"seed"`
		VNodes int      `json:"vnodes"`
		Nodes  []string `json:"nodes"`
	} `json:"ring"`
}

func (rt *Router) handleMembers(w http.ResponseWriter, r *http.Request) {
	var resp membersResponse
	resp.Members = rt.mem.Members()
	ring := rt.mem.Ring()
	resp.Ring.Seed = ringSeed
	resp.Ring.VNodes = DefaultVNodes
	resp.Ring.Nodes = ring.Nodes()
	serve.WriteJSON(w, http.StatusOK, resp)
}

// joinRequest is the POST /cluster/join body: a worker's push
// heartbeat, carrying the base URL it serves on.
type joinRequest struct {
	ID string `json:"id"`
}

func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		serve.WriteJSON(w, http.StatusBadRequest, serve.ErrorResponse{
			Error: "POST {\"id\":\"http://worker:port\"} to join", Code: http.StatusBadRequest})
		return
	}
	var jr joinRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&jr); err != nil || jr.ID == "" {
		serve.WriteJSON(w, http.StatusBadRequest, serve.ErrorResponse{
			Error: "invalid join body (want {\"id\":\"http://worker:port\"})", Code: http.StatusBadRequest})
		return
	}
	rt.mem.Join(jr.ID)
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "members": rt.mem.HealthyCount()})
}

// handleTrace serves GET /trace/{id} fleet-wide: the router remembers
// which worker served each trace, fetches the worker's span tree, and
// grafts it under a router root span whose "forward" child carries the
// hop cost — so one trace shows the whole path: router admission,
// forward, then the worker's queue/cache/execute stages.
func (rt *Router) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Path[len("/trace/"):]
	if id == "" {
		serve.WriteJSON(w, http.StatusBadRequest, serve.ErrorResponse{
			Error: "want /trace/{id}", Code: http.StatusBadRequest})
		return
	}
	entry, ok := rt.lookupTrace(id)
	var workers []string
	if ok {
		workers = []string{entry.worker}
	} else {
		// Not in the index (evicted, or another router forwarded it):
		// ask every healthy worker.
		workers = rt.mem.Ring().Nodes()
	}
	for _, worker := range workers {
		wt, err := rt.fetchTrace(r.Context(), worker, id)
		if err != nil || wt == nil {
			continue
		}
		serve.WriteJSON(w, http.StatusOK, graftTrace(wt, worker, entry))
		return
	}
	serve.WriteJSON(w, http.StatusNotFound, serve.ErrorResponse{
		Error: fmt.Sprintf("no finished trace %q on any worker", id), Code: http.StatusNotFound})
}

func (rt *Router) fetchTrace(ctx context.Context, worker, id string) (*service.RequestTrace, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/trace/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, nil
	}
	var wt service.RequestTrace
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&wt); err != nil {
		return nil, err
	}
	return &wt, nil
}

// graftTrace parents the worker's span tree under the router: the
// returned trace keeps the worker's identity and stage breakdown but
// its root is a "router" span whose "forward" child (hop latency,
// retry count, worker) holds the worker's original root.
func graftTrace(wt *service.RequestTrace, worker string, entry *traceEntry) *service.RequestTrace {
	attrs := map[string]string{"worker": worker}
	forward := &service.TraceSpan{Name: "forward", Attrs: attrs}
	if entry != nil {
		forward.DurMS = entry.durMS
		if entry.retries > 0 {
			attrs["retries"] = strconv.Itoa(entry.retries)
		}
	}
	if wt.Root != nil {
		forward.Children = []*service.TraceSpan{wt.Root}
		if entry == nil {
			forward.DurMS = wt.Root.DurMS
		}
	}
	// Field-by-field copy: RequestTrace carries an internal mutex, so
	// the grafted value is rebuilt from the exported (wire) fields only.
	out := &service.RequestTrace{
		Schema: wt.Schema, TraceID: wt.TraceID, Tenant: wt.Tenant,
		Kind: wt.Kind, ID: wt.ID, Status: wt.Status, Cache: wt.Cache,
		Error: wt.Error, StageMS: wt.StageMS,
	}
	if wt.StageMS != nil {
		stages := make(map[string]float64, len(wt.StageMS)+1)
		for k, v := range wt.StageMS {
			stages[k] = v
		}
		stages["forward"] = forward.DurMS
		out.StageMS = stages
	}
	out.Root = &service.TraceSpan{Name: "router", DurMS: forward.DurMS, Children: []*service.TraceSpan{forward}}
	return out
}
