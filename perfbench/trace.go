package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analyzer"
	"repro/internal/compile"
	"repro/internal/foundry"
	"repro/internal/layout"
	"repro/internal/mem"
	"repro/internal/serve"
	"repro/internal/service"
)

// span is one timed interval of the traced run. Times are nanoseconds
// since the recorder's epoch; Parent is a span index or -1 for a root.
// Spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// reqCounts are the counts taken at one traced request's boundaries.
// Counter deltas (layout, pool, program cache) are read before and
// after the request, so the probe that follows is never counted.
type reqCounts struct {
	Req         int32  `json:"req"`
	Path        string `json:"path"`
	Cell        string `json:"cell,omitempty"` // scenario|defense|model
	Cache       string `json:"cache,omitempty"`
	Status      int    `json:"status"`
	RespBytes   int    `json:"resp_bytes"`
	Resolutions uint64 `json:"layout_resolutions"`
	PoolHits    uint64 `json:"pool_hits"`
	PoolMisses  uint64 `json:"pool_misses"`
	ProgHits    uint64 `json:"program_hits"`
	ProgMisses  uint64 `json:"program_misses"`
	ProgEvicted uint64 `json:"program_evictions"`
	Programs    int    `json:"programs,omitempty"`
	Diags       int    `json:"diagnostics,omitempty"`
}

// recorder keeps every span in memory until the run ends. The client
// and the handler goroutine both record, so appends take a lock.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	reqs  []reqCounts
	req   int32 // the request in flight
	cur   int32 // its root span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) begin(name string, parent int32) int32 {
	return r.beginTag(name, "", parent)
}

func (r *recorder) beginTag(name, tag string, parent int32) int32 {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Tag: tag, Start: t, End: -1, Parent: parent, Req: r.req})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) {
	t := r.now()
	r.mu.Lock()
	r.spans[i].End = t
	r.mu.Unlock()
}

// root opens a request's root span and makes it the request in flight.
func (r *recorder) root(name string, req int32) int32 {
	r.mu.Lock()
	r.req = req
	r.mu.Unlock()
	i := r.begin(name, -1)
	r.mu.Lock()
	r.cur = i
	r.mu.Unlock()
	return i
}

// current returns the root span of the request in flight.
func (r *recorder) current() int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur
}

// stages turns the stage breakdown HandleTraced returned into child
// spans of the handle span. Stage offsets are relative to the trace
// start, which lies inside the handle span, so anchoring them at the
// span's start keeps every stage inside it. The clone stage nests
// under execute, whose interval contains it.
func (r *recorder) stages(handle int32, rt *service.RequestTrace) {
	if rt == nil || rt.Root == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.spans[handle]
	clamp := func(t, lo, hi int64) int64 { return min(max(t, lo), hi) }
	add := func(name string, st *service.TraceSpan, parent int32) int32 {
		lo, hi := r.spans[parent].Start, r.spans[parent].End
		s := clamp(h.Start+int64(st.StartMS*1e6), lo, hi)
		e := clamp(s+int64(st.DurMS*1e6), s, hi)
		r.spans = append(r.spans, span{Name: name, Start: s, End: e, Parent: parent, Req: h.Req})
		return int32(len(r.spans) - 1)
	}
	var clone *service.TraceSpan
	for _, st := range rt.Root.Children {
		if st.Name == service.StageClone {
			clone = st
		}
	}
	for _, st := range rt.Root.Children {
		if st.Name == service.StageClone {
			continue
		}
		i := add("service."+st.Name, st, handle)
		if st.Name == service.StageExecute && clone != nil {
			add("service."+clone.Name, clone, i)
			clone = nil
		}
	}
	if clone != nil {
		add("service."+clone.Name, clone, handle)
	}
}

// tracedServer serves the real handler until armed, then serves /run
// and /analyze through handlers that make the same public calls as
// the server's own (serve.ParseRequest, Service.HandleTraced,
// analyzer.Analyze, analyzer.Baseline, serve.WriteJSON) with a span
// around each.
type tracedServer struct {
	srv  *serve.Server
	real http.Handler
	rec  *recorder
	on   atomic.Bool
}

func (t *tracedServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case !t.on.Load():
		t.real.ServeHTTP(w, r)
	case r.URL.Path == "/run":
		t.run(w, r)
	case r.URL.Path == "/analyze":
		t.analyze(w, r)
	default:
		t.real.ServeHTTP(w, r)
	}
}

func (t *tracedServer) run(w http.ResponseWriter, r *http.Request) {
	rec := t.rec
	h := rec.begin("serve.handler", rec.current())
	defer rec.end(h)
	d := rec.begin("serve.decode", h)
	req, err := serve.ParseRequest(r)
	rec.end(d)
	if err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: err.Error(), Code: http.StatusBadRequest})
		return
	}
	hs := rec.begin("service.handle", h)
	res, tok, rt, err := t.srv.Service().HandleTraced(r.Context(), req)
	rec.end(hs)
	rec.stages(hs, rt)
	if err != nil {
		t.srv.WriteError(w, err)
		return
	}
	e := rec.begin("serve.encode", h)
	serve.WriteJSON(w, http.StatusOK, serve.RunResponse{
		Result:  res,
		Cache:   tok,
		ServeNS: rec.spans[hs].dur(),
		TraceID: rt.TraceID,
		Stages:  rt.StageMS,
	})
	rec.end(e)
}

func (t *tracedServer) analyze(w http.ResponseWriter, r *http.Request) {
	rec := t.rec
	h := rec.begin("serve.handler", rec.current())
	defer rec.end(h)
	d := rec.begin("serve.decode", h)
	var req serve.AnalyzeRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, 8<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	rec.end(d)
	if err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: "invalid JSON body: " + err.Error(), Code: http.StatusBadRequest})
		return
	}
	start := time.Now()
	var resp serve.AnalyzeResponse
	for _, p := range req.Programs {
		item := serve.AnalyzeItem{Name: p.Name, Code: http.StatusOK}
		a := rec.begin("analyzer.analyze", h)
		res, err := analyzer.Analyze(p.Src, analyzer.Options{Model: foundry.Model})
		rec.end(a)
		b := rec.begin("analyzer.baseline", h)
		bf, berr := analyzer.Baseline(p.Src)
		rec.end(b)
		switch {
		case err != nil:
			item = serve.AnalyzeItem{Name: p.Name, Code: http.StatusBadRequest, Error: "analyze: " + err.Error()}
		case berr != nil:
			item = serve.AnalyzeItem{Name: p.Name, Code: http.StatusBadRequest, Error: "baseline: " + berr.Error()}
		default:
			for _, dg := range res.Diags {
				item.Findings = append(item.Findings, serve.AnalysisFinding{
					Plane: "static", Severity: dg.Sev.String(), Code: dg.Code,
					Line: dg.Pos.Line, Col: dg.Pos.Col, Message: dg.Msg, Suggestion: dg.Suggestion,
				})
			}
			for _, f := range bf {
				item.Findings = append(item.Findings, serve.AnalysisFinding{
					Plane: "baseline", Line: f.Pos.Line, Col: f.Pos.Col,
					Message: fmt.Sprintf("risky call to %s: %s", f.Func, f.Msg),
				})
			}
		}
		resp.Results = append(resp.Results, item)
		if item.Code == http.StatusOK {
			resp.OK++
		} else {
			resp.Failed++
		}
	}
	resp.ServeNS = time.Since(start).Nanoseconds()
	e := rec.begin("serve.encode", h)
	serve.WriteJSON(w, http.StatusOK, resp)
	rec.end(e)
}

// counters are the process counters a traced request is bracketed by.
type counters struct {
	resolutions uint64
	pool        mem.PoolStats
	programs    compile.CacheStats
}

func readCounters(svc *service.Service) counters {
	c := counters{resolutions: layout.Resolutions(), pool: svc.Pool().Stats()}
	if p := svc.Programs(); p != nil {
		c.programs = p.Stats()
	}
	return c
}

// tracer replays a stream single-threaded with spans on.
type tracer struct {
	s   *stream
	or  *oracle
	b   *bench
	ts  *tracedServer
	rec *recorder
}

// replay sends the stream from position from, one request at a time,
// until deadline, and returns the request count and the summed request
// wall time. With traced set every request is traced and probed.
func (t *tracer) replay(from int, deadline time.Time, traced bool) (n, failed int, wall time.Duration, firstErr error) {
	c := t.b.clients[0]
	t.ts.on.Store(traced)
	defer t.ts.on.Store(false)
	for i := from; time.Now().Before(deadline); i++ {
		o := t.s.at(i)
		var err error
		var d time.Duration
		if traced {
			d, err = t.traceOne(c, o, int32(n))
		} else {
			t0 := time.Now()
			var code int
			var body []byte
			code, body, err = c.send(o)
			d = time.Since(t0)
			if err == nil {
				_, err = t.or.check(o, code, body)
			}
		}
		n++
		wall += d
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return n, failed, wall, firstErr
}

// traceOne sends one traced request, checks it, and probes the layers
// beneath the service with direct calls on the same input.
func (t *tracer) traceOne(c *client, o *op, req int32) (time.Duration, error) {
	svc := t.b.srv.Service()
	before := readCounters(svc)
	root := t.rec.root("request", req)
	code, body, err := c.send(o)
	t.rec.end(root)
	after := readCounters(svc)
	wall := time.Duration(t.rec.spans[root].dur())
	if err != nil {
		return wall, err
	}
	rc := reqCounts{
		Req: req, Path: o.path, Status: code, RespBytes: len(body),
		Resolutions: after.resolutions - before.resolutions,
		PoolHits:    after.pool.Hits - before.pool.Hits,
		PoolMisses:  after.pool.Misses - before.pool.Misses,
		ProgHits:    after.programs.Hits - before.programs.Hits,
		ProgMisses:  after.programs.Misses - before.programs.Misses,
		ProgEvicted: after.programs.Evictions - before.programs.Evictions,
	}
	if o.path == "/run" {
		c := t.s.cells[o.cell]
		rc.Cell = c.scenario.ID + "|" + c.defense.Name + "|" + c.defense.Model.Name
	}
	v, err := t.or.check(o, code, body)
	rc.Cache, rc.Programs, rc.Diags = v.cache, v.programs, v.diags
	t.rec.reqs = append(t.rec.reqs, rc)
	if err != nil {
		return wall, err
	}
	return wall, t.probe(o, rc, req)
}

// probe times the calls beneath the service for the request just
// traced, under a root span of its own so they never count toward the
// request's wall time. /run: service.Key, then what the service ran
// for that request — the compiled program (cache lookup, compilation
// when the request missed, replay, and one pool clone per replayed
// process) or the interpreted scenario plus one pool clone per process
// it built. Result-cache hits ran nothing and are not probed further.
// /analyze: analyzer.ParseProgram of every program.
func (t *tracer) probe(o *op, rc reqCounts, req int32) error {
	rec := t.rec
	p := rec.root("probe", req)
	defer rec.end(p)
	if o.path == "/analyze" {
		for _, prog := range t.s.batches[o.batch] {
			a := rec.begin("analyzer.parse", p)
			_, err := analyzer.ParseProgram(prog.Src)
			rec.end(a)
			if err != nil {
				return fmt.Errorf("probe parse %s: %w", prog.Name, err)
			}
		}
		return nil
	}
	var sreq service.Request
	if err := json.Unmarshal(o.body, &sreq); err != nil {
		return err
	}
	k := rec.begin("service.key", p)
	_, err := service.Key(sreq)
	rec.end(k)
	if err != nil {
		return fmt.Errorf("probe key: %w", err)
	}
	if rc.Cache == service.CacheHit || rc.Cache == service.CacheCoalesced {
		return nil
	}
	svc := t.b.srv.Service()
	pool := svc.Pool()
	c := t.s.cells[o.cell]
	if programs := svc.Programs(); programs != nil {
		cfg := c.defense
		cfg.Pool, cfg.Compiled = pool, true
		g := rec.begin("compile.get", p)
		sp, err := programs.Get(c.scenario, cfg)
		rec.end(g)
		if err == nil {
			if rc.ProgMisses > 0 {
				cs := rec.begin("compile.compile", p)
				_, err := compile.CompileScenario(c.scenario, cfg)
				rec.end(cs)
				if err != nil {
					return fmt.Errorf("probe compile: %w", err)
				}
			}
			r := rec.begin("compile.replay", p)
			_, _, err := sp.Run(pool)
			rec.end(r)
			if err != nil {
				return fmt.Errorf("probe replay: %w", err)
			}
			for _, pp := range sp.Prog.Procs {
				if err := t.acquire(p, pool, pp.Img); err != nil {
					return err
				}
			}
			return nil
		}
		// Not compilable: the service interpreted it, and so does the probe.
	}
	cfg := c.defense
	cfg.Pool = pool
	images := 0
	cfg.OnImage = func(*mem.Image) { images++ }
	a := rec.beginTag("attack.run", scenarioClass(c.scenario.ID)+"/"+defenseGroup(c)+"/"+c.scenario.ID, p)
	_, err = c.scenario.Run(cfg)
	rec.end(a)
	if err != nil {
		return fmt.Errorf("probe run: %w", err)
	}
	for i := 0; i < images; i++ {
		if err := t.acquire(p, pool, mem.ImageConfig{ExecStack: !c.defense.NXStack}); err != nil {
			return err
		}
	}
	return nil
}

func (t *tracer) acquire(parent int32, pool *mem.ImagePool, cfg mem.ImageConfig) error {
	a := t.rec.begin("mem.acquire", parent)
	_, _, err := pool.Acquire(cfg)
	t.rec.end(a)
	if err != nil {
		return fmt.Errorf("probe acquire: %w", err)
	}
	return nil
}

// scenarioClass buckets a scenario into the attack classes the
// benchmark reports run time by.
func scenarioClass(id string) string {
	switch {
	case strings.HasPrefix(id, "vptr") || id == "type-confusion":
		return "vptr"
	case id == "funcptr" || id == "varptr" || id == "member-var" || strings.HasPrefix(id, "var-"):
		return "pointer"
	case strings.HasPrefix(id, "array-") || strings.HasPrefix(id, "infoleak-"):
		return "array"
	case strings.HasPrefix(id, "dos-") || id == "memleak" || id == "dangling-write":
		return "lifecycle"
	}
	return "overflow"
}

// defenseGroup buckets a cell's defense: the undefended baseline, the
// configurations with the shadow-memory sanitizer, and the rest.
func defenseGroup(c cell) string {
	switch {
	case c.defense.Name == "none":
		return "none"
	case c.defense.Shadow:
		return "shadow"
	}
	return "guarded"
}

var (
	attackClasses = []string{"overflow", "pointer", "vptr", "array", "lifecycle"}
	defenseGroups = []string{"none", "shadow", "guarded"}
)

// traceRun is the --trace 1 run: an untraced single-threaded replay for
// the overhead baseline, then the traced replay of the same requests.
func traceRun(w workload, s *stream, or *oracle, seconds float64) (*traceResult, error) {
	rec := newRecorder()
	var ts *tracedServer
	b := startBench(w, 1, func(srv *serve.Server) http.Handler {
		ts = &tracedServer{srv: srv, real: srv.Handler(), rec: rec}
		return ts
	})
	defer b.close()
	warm := b.drive(s, or, 0, w.warmup, time.Time{})
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d failed: %w", warm.failed, warm.attempted, warm.firstErr)
	}
	t := &tracer{s: s, or: or, b: b, ts: ts, rec: rec}
	budget := time.Duration(seconds * float64(time.Second))
	un, ufailed, uwall, uerr := t.replay(w.warmup, time.Now().Add(budget/3), false)
	tn, tfailed, twall, terr := t.replay(w.warmup, time.Now().Add(budget-budget/3), true)
	res := &traceResult{
		attempted: warm.attempted + un + tn,
		failed:    ufailed + tfailed,
		rec:       rec,
		untraced:  float64(un) / uwall.Seconds(),
		traced:    float64(tn) / twall.Seconds(),
	}
	if uerr != nil {
		res.firstErr = uerr
	} else {
		res.firstErr = terr
	}
	return res, nil
}

// traceResult is a traced run's spans plus its throughput comparison.
type traceResult struct {
	attempted, failed int
	firstErr          error
	rec               *recorder
	untraced, traced  float64 // requests per second of request wall time
}

// layerMetrics derives every per-layer metric from the spans and
// counts. It also returns the number of spans whose self time came out
// negative (zero when the span tree nests correctly).
func (tr *traceResult) layerMetrics() (map[string]metric, int) {
	spans := tr.rec.spans
	childSum := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.dur()
		}
	}
	samples := map[string][]float64{}
	negative := 0
	for i, s := range spans {
		self := s.dur() - childSum[i]
		if self < 0 || s.End < 0 {
			negative++
		}
		us := float64(self) / 1e3
		switch s.Name {
		case "request":
			samples["http.transport_us"] = append(samples["http.transport_us"], us)
			samples["request_us"] = append(samples["request_us"], float64(s.dur())/1e3)
		case "serve.handler":
			samples["other_us"] = append(samples["other_us"], us)
		case "service.handle":
			samples["service.handle_self_us"] = append(samples["service.handle_self_us"], us)
		case "service.execute":
			samples["service.execute_self_us"] = append(samples["service.execute_self_us"], us)
		case "attack.run":
			tag := strings.SplitN(s.Tag, "/", 3)
			class, group := tag[0], tag[1]
			samples["attack.run_us."+class] = append(samples["attack.run_us."+class], us)
			samples["attack.run_us."+group] = append(samples["attack.run_us."+group], us)
		case "probe":
		default:
			name := s.Name + "_us"
			samples[name] = append(samples[name], us)
		}
	}

	out := map[string]metric{}
	for _, name := range timedLayerMetrics() {
		xs := samples[name]
		out[name+".p50"] = metric{percentile(xs, 50), "us"}
		out[name+".p99"] = metric{percentile(xs, 99), "us"}
		out[name+".n"] = metric{float64(len(xs)), "count"}
	}

	var c struct {
		runs, hits, rejected, bytes, resolutions          float64
		poolHits, poolAll, progHits, progAll, progEvicted float64
		programs, diags, wall, other                      float64
	}
	for _, r := range tr.rec.reqs {
		c.bytes += float64(r.RespBytes)
		c.resolutions += float64(r.Resolutions)
		c.poolHits += float64(r.PoolHits)
		c.poolAll += float64(r.PoolHits + r.PoolMisses)
		c.progHits += float64(r.ProgHits)
		c.progAll += float64(r.ProgHits + r.ProgMisses)
		c.progEvicted += float64(r.ProgEvicted)
		c.programs += float64(r.Programs)
		c.diags += float64(r.Diags)
		if r.Status == http.StatusTooManyRequests || r.Status == http.StatusServiceUnavailable {
			c.rejected++
		}
		if r.Path == "/run" {
			c.runs++
			if r.Cache == service.CacheHit {
				c.hits++
			}
		}
	}
	for _, x := range samples["request_us"] {
		c.wall += x
	}
	for _, x := range samples["other_us"] {
		c.other += x
	}
	n := float64(len(tr.rec.reqs))
	out["serve.resp_bytes"] = metric{ratio(c.bytes, n), "bytes"}
	out["service.cache_hit_ratio"] = metric{ratio(c.hits, c.runs), "ratio"}
	out["service.rejected"] = metric{c.rejected, "count"}
	out["mem.pool_hit_ratio"] = metric{ratio(c.poolHits, c.poolAll), "ratio"}
	out["layout.resolutions_per_req"] = metric{ratio(c.resolutions, n), "count"}
	out["compile.hit_ratio"] = metric{ratio(c.progHits, c.progAll), "ratio"}
	out["compile.evictions_per_kreq"] = metric{1000 * ratio(c.progEvicted, n), "count"}
	out["analyzer.diagnostics_per_prog"] = metric{ratio(c.diags, c.programs), "count"}
	out["other_share"] = metric{ratio(c.other, c.wall), "ratio"}
	out["trace.untraced_rps"] = metric{tr.untraced, "1/s"}
	out["trace.traced_rps"] = metric{tr.traced, "1/s"}
	out["trace.overhead_pct"] = metric{100 * (ratio(tr.untraced, tr.traced) - 1), "%"}
	return out, negative
}

// timedLayerMetrics names every per-layer timing, each reported as
// .p50, .p99 and .n.
func timedLayerMetrics() []string {
	names := []string{
		"request_us", "http.transport_us", "other_us",
		"serve.decode_us", "serve.encode_us",
		"service.key_us", "service.handle_self_us", "service.queue_wait_us",
		"service.cache_lookup_us", "service.execute_self_us", "service.clone_us",
		"mem.acquire_us",
		"compile.get_us", "compile.compile_us", "compile.replay_us",
		"analyzer.parse_us", "analyzer.analyze_us", "analyzer.baseline_us",
	}
	for _, c := range attackClasses {
		names = append(names, "attack.run_us."+c)
	}
	for _, g := range defenseGroups {
		names = append(names, "attack.run_us."+g)
	}
	return names
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// write writes the header, spans and counts as JSON lines.
func (tr *traceResult) write(path string, header runHeader) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header); err != nil {
		return err
	}
	for i := range tr.rec.spans {
		if err := enc.Encode(&tr.rec.spans[i]); err != nil {
			return err
		}
	}
	for i := range tr.rec.reqs {
		if err := enc.Encode(&tr.rec.reqs[i]); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
