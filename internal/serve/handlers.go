package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/defense"
	"repro/internal/experiments"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/service"
)

// RunResponse is the /run success envelope. EncodeJSON appends the
// envelope fields by hand after the Result's encoding, so a field added
// here must be added there too; TestRunResponseMatchesEncoder fails
// until it is.
type RunResponse struct {
	*service.Result
	// Cache is hit, miss, coalesced, cloned, or bypass.
	Cache string `json:"cache"`
	// ServeNS is this request's end-to-end time in the server,
	// queueing and cache lookup included.
	ServeNS int64 `json:"serve_ns"`
	// TraceID identifies this request's trace (also echoed in the
	// X-PN-Trace-Id response header); the finished span tree is at
	// /trace/{id}.
	TraceID string `json:"trace_id"`
	// Stages is the per-stage latency breakdown in milliseconds
	// (queue_wait, cache_lookup, cache_fill, clone, execute,
	// shadow_check — stages that did not occur are absent).
	Stages map[string]float64 `json:"stages,omitempty"`
}

// ErrorResponse is every non-200 body.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
	// Reject carries the structured load-shedding state for 429/503.
	Reject *service.Rejection `json:"reject,omitempty"`
	// Crashes carries supervised crash records for 500s.
	Crashes any `json:"crashes,omitempty"`
}

// drainingResponse is the structured 503 every endpoint returns while
// the HTTP layer is draining.
func drainingResponse(r *http.Request) ErrorResponse {
	return ErrorResponse{
		Error: "server draining", Code: http.StatusServiceUnavailable,
		Reject: &service.Rejection{
			Code: 503, Reason: service.ReasonDraining,
			Tenant: service.NormalizeTenant(r.Header.Get(TenantHeader)),
		},
	}
}

// applyTrustedHeaders copies the router hop headers into req — only
// under Config.TrustAdmitted, so a front-door server cannot be talked
// into skipping its own admission control.
func (s *Server) applyTrustedHeaders(req *service.Request, r *http.Request) {
	if !s.cfg.TrustAdmitted {
		return
	}
	if r.Header.Get(AdmittedHeader) != "" {
		req.Admitted = true
	}
	req.FillFrom = r.Header.Get(FillFromHeader)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, drainingResponse(r))
		return
	}
	req, err := ParseRequest(r)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Code: http.StatusBadRequest})
		return
	}
	s.applyTrustedHeaders(&req, r)
	start := s.now()
	res, cacheTok, rt, err := s.svc.HandleTraced(r.Context(), req)
	if rt != nil {
		w.Header().Set(TraceHeader, rt.TraceID)
	}
	if err != nil {
		s.WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, RunResponse{
		Result:  res,
		Cache:   cacheTok,
		ServeNS: s.now().Sub(start).Nanoseconds(),
		TraceID: rt.TraceID,
		Stages:  rt.StageMS,
	})
}

// BatchRequest is the POST /runbatch body.
type BatchRequest struct {
	Requests []service.Request `json:"requests"`
}

// BatchItem is one request's outcome in a /runbatch response, in
// request order. Successful items carry the result and Code 200; failed
// items carry the structured error fields and their per-item status
// code — one bad request never fails its siblings.
type BatchItem struct {
	*service.Result
	Cache string `json:"cache,omitempty"`
	Error string `json:"error,omitempty"`
	Code  int    `json:"code"`
	// Reject carries the structured load-shedding state for shed items.
	Reject *service.Rejection `json:"reject,omitempty"`
}

// BatchResponse is the POST /runbatch success envelope.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
	OK      int         `json:"ok"`
	Failed  int         `json:"failed"`
	// ServeNS is the whole batch's end-to-end time in the server.
	ServeNS int64 `json:"serve_ns"`
}

// handleRunBatch admits up to service.MaxBatchSize requests in one
// call. Items execute concurrently through the normal per-request path
// (lanes, deadlines, cache, shedding per item); see docs/serving.md for
// the schema.
func (s *Server) handleRunBatch(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, drainingResponse(r))
		return
	}
	breq, err := ParseBatch(r)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Code: http.StatusBadRequest})
		return
	}

	// The batch's tenant comes from the header, like single requests:
	// bodies cannot impersonate other tenants.
	for i := range breq.Requests {
		breq.Requests[i].Tenant = r.Header.Get(TenantHeader)
		s.applyTrustedHeaders(&breq.Requests[i], r)
	}

	start := time.Now()
	outcomes := s.svc.HandleBatch(r.Context(), breq.Requests)
	resp := BatchResponse{Results: make([]BatchItem, len(outcomes))}
	for i, o := range outcomes {
		if o.Err == nil {
			resp.Results[i] = BatchItem{Result: o.Result, Cache: o.Cache, Code: http.StatusOK}
			resp.OK++
			continue
		}
		code, rej := ErrorStatus(o.Err)
		resp.Results[i] = BatchItem{Error: o.Err.Error(), Code: code, Reject: rej}
		resp.Failed++
	}
	resp.ServeNS = time.Since(start).Nanoseconds()
	WriteJSON(w, http.StatusOK, resp)
}

// ParseBatch reads a POST /runbatch body: a JSON BatchRequest of 1 to
// service.MaxBatchSize requests in at most 8 MiB, with no unknown
// fields. The error text is the 400 body's message, so a router and a
// worker reject one malformed batch with the same body.
func ParseBatch(r *http.Request) (BatchRequest, error) {
	var breq BatchRequest
	if r.Method != http.MethodPost {
		return breq, fmt.Errorf("method %s not allowed on /runbatch (POST a JSON body)", r.Method)
	}
	dec := json.NewDecoder(io.LimitReader(r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&breq); err != nil {
		return breq, fmt.Errorf("invalid JSON body: %w", err)
	}
	if len(breq.Requests) == 0 {
		return breq, errors.New("empty batch")
	}
	if len(breq.Requests) > service.MaxBatchSize {
		return breq, fmt.Errorf("batch of %d exceeds limit %d", len(breq.Requests), service.MaxBatchSize)
	}
	return breq, nil
}

// ErrorStatus maps a service error to its status code (and structured
// rejection, when it is one) — the mapping both whole responses and
// batch items use.
func ErrorStatus(err error) (int, *service.Rejection) {
	var bad *service.BadRequest
	var rej *service.Rejection
	switch {
	case errors.As(err, &bad):
		return http.StatusBadRequest, nil
	case errors.As(err, &rej):
		return rej.Code, rej
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, nil
	case errors.Is(err, context.Canceled):
		// 499: client closed request (nginx convention).
		return 499, nil
	default:
		return http.StatusInternalServerError, nil
	}
}

// WriteError maps service errors onto structured HTTP responses with
// ErrorStatus's codes. A rejection adds its retry hints; an execution
// death adds its crash records.
func (s *Server) WriteError(w http.ResponseWriter, err error) {
	code, rej := ErrorStatus(err)
	resp := ErrorResponse{Error: err.Error(), Code: code, Reject: rej}
	if rej != nil {
		// Standard Retry-After is whole seconds (rounded up); the
		// millisecond-precision hint rides alongside for clients that can
		// use it.
		w.Header().Set("Retry-After", strconv.FormatInt((rej.RetryAfterMS+999)/1000, 10))
		w.Header().Set("X-PN-Retry-After-MS", strconv.FormatInt(rej.RetryAfterMS, 10))
	}
	var exe *service.ExecError
	if errors.As(err, &exe) {
		resp.Crashes = exe.Crashes
	}
	WriteJSON(w, code, resp)
}

// ParseRequest accepts POST JSON or GET query parameters, and reads
// the tenant and trace identity headers.
func ParseRequest(r *http.Request) (service.Request, error) {
	req, err := parseRequestBody(r)
	if err != nil {
		return req, err
	}
	req.Tenant = r.Header.Get(TenantHeader)
	req.TraceID = r.Header.Get(TraceHeader)
	return req, nil
}

func parseRequestBody(r *http.Request) (service.Request, error) {
	var req service.Request
	switch r.Method {
	case http.MethodPost:
		dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return req, fmt.Errorf("invalid JSON body: %w", err)
		}
		return req, nil
	case http.MethodGet:
		q := r.URL.Query()
		req.Experiment = q.Get("experiment")
		req.Scenario = q.Get("scenario")
		req.Defense = q.Get("defense")
		req.Model = q.Get("model")
		req.Faults = q.Get("faults")
		req.Priority = q.Get("priority")
		var err error
		if v := q.Get("seed"); v != "" {
			if req.Seed, err = strconv.ParseInt(v, 10, 64); err != nil {
				return req, fmt.Errorf("invalid seed: %w", err)
			}
		}
		if v := q.Get("chaos_prob"); v != "" {
			if req.ChaosProb, err = strconv.ParseFloat(v, 64); err != nil {
				return req, fmt.Errorf("invalid chaos_prob: %w", err)
			}
		}
		if v := q.Get("deadline_ms"); v != "" {
			if req.DeadlineMS, err = strconv.ParseInt(v, 10, 64); err != nil {
				return req, fmt.Errorf("invalid deadline_ms: %w", err)
			}
		}
		if v := q.Get("repeat"); v != "" {
			if req.Repeat, err = strconv.Atoi(v); err != nil {
				return req, fmt.Errorf("invalid repeat: %w", err)
			}
		}
		if v := q.Get("no_cache"); v != "" {
			if req.NoCache, err = strconv.ParseBool(v); err != nil {
				return req, fmt.Errorf("invalid no_cache: %w", err)
			}
		}
		return req, nil
	default:
		return req, fmt.Errorf("method %s not allowed on /run", r.Method)
	}
}

// Catalog is the /experiments payload: everything servable.
type Catalog struct {
	Experiments []CatalogExperiment `json:"experiments"`
	Scenarios   []CatalogScenario   `json:"scenarios"`
	Defenses    []string            `json:"defenses"`
	Models      []string            `json:"models"`
}

// CatalogExperiment is one experiment's catalogue entry.
type CatalogExperiment struct {
	ID    string `json:"id"`
	Ref   string `json:"ref"`
	Title string `json:"title"`
}

// CatalogScenario is one attack scenario's catalogue entry.
type CatalogScenario struct {
	ID  string `json:"id"`
	Ref string `json:"ref"`
}

// BuildCatalog assembles the servable catalogue. The router serves it
// locally — every node holds the same corpus, so no forward is needed.
func BuildCatalog() Catalog {
	var c Catalog
	for _, e := range experiments.All() {
		c.Experiments = append(c.Experiments, CatalogExperiment{ID: e.ID, Ref: e.Ref, Title: e.Title})
	}
	for _, sc := range attack.Catalog() {
		c.Scenarios = append(c.Scenarios, CatalogScenario{ID: sc.ID, Ref: sc.Ref})
	}
	for _, d := range defense.Catalog() {
		c.Defenses = append(c.Defenses, d.Name)
	}
	c.Models = []string{layout.ILP32.Name, layout.ILP32i386.Name, layout.LP64.Name}
	return c
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, BuildCatalog())
}

// handleHealth is liveness: 200 for the whole process lifetime, even
// while draining — a draining process is shutting down cleanly, not
// dead, and must not be killed by its supervisor.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":    status,
		"uptime_ms": time.Since(s.wallStart).Milliseconds(),
	})
}

// ReadyResponse is the /readyz body: the status string plus the
// draining flag, so a router can tell "draining — eject this node and
// move its shard" from any other refusal without string-matching.
type ReadyResponse struct {
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
	UptimeMS int64  `json:"uptime_ms"`
}

// handleReady is readiness: 503 while draining — "route new traffic
// elsewhere".
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	resp := ReadyResponse{
		Status:   "ready",
		Draining: s.draining.Load(),
		UptimeMS: time.Since(s.wallStart).Milliseconds(),
	}
	code := http.StatusOK
	if resp.Draining {
		resp.Status, code = "draining", http.StatusServiceUnavailable
	}
	WriteJSON(w, code, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.reg.Set(obs.MetricServeUptime, s.now().Sub(s.started).Seconds())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, s.reg.Exposition())
}

// handleCache serves GET /cache/{key}: a peek into the local result
// cache by content address — 200 with the stored Result, or 404. This
// is the cross-node cache-fill donor side: after a ring rebalance the
// new owner of a key clones the previous owner's entry through it.
// Reads refresh LRU recency but never execute anything.
func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, "/cache/")
	if key == "" || strings.Contains(key, "/") {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: "want /cache/{key}", Code: http.StatusBadRequest})
		return
	}
	res, ok := s.svc.Cache().Get(key)
	if !ok {
		WriteJSON(w, http.StatusNotFound, ErrorResponse{
			Error: fmt.Sprintf("key %q not cached", key), Code: http.StatusNotFound})
		return
	}
	WriteJSON(w, http.StatusOK, res)
}
