package service

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/obs"
)

// VirtualClock is a deterministic logical clock for the Config.Now
// seam: every read advances time by one millisecond from the Unix
// epoch. Under it, every duration in traces and streamed events is a
// count of clock reads — synthetic, but byte-identical across runs of
// the same sequential request sequence (pnserve -deterministic, the
// CI watch-smoke double-run gate).
type VirtualClock struct {
	ticks atomic.Int64
}

// NewVirtualClock builds a clock starting at the epoch.
func NewVirtualClock() *VirtualClock { return &VirtualClock{} }

// Now advances the clock one millisecond and returns it.
func (c *VirtualClock) Now() time.Time {
	return time.Unix(0, c.ticks.Add(1)*int64(time.Millisecond))
}

// Stage names of the per-request latency breakdown. Each has a
// matching pn_serve_stage_* histogram family and appears as a child
// span of the request's trace root.
const (
	StageQueueWait   = "queue_wait"
	StageCacheLookup = "cache_lookup"
	StageCacheFill   = "cache_fill"
	StageClone       = "clone"
	StageExecute     = "execute"
	StageShadowCheck = "shadow_check"
)

// TraceSpan is one node of a finished span tree: offsets are
// milliseconds from the trace root's start, read from the service
// clock (so deterministic under an injected virtual clock).
type TraceSpan struct {
	Name     string            `json:"name"`
	StartMS  float64           `json:"start_ms"`
	DurMS    float64           `json:"dur_ms"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*TraceSpan      `json:"children,omitempty"`
}

// RequestTrace accumulates one request's span tree while it is in
// flight and freezes into the GET /trace/{id} JSON shape at finish.
// Every stage-recording method is nil-safe, so untraced paths (the
// deterministic tenant soak, direct Scheduler users) pass nil and pay
// one pointer check.
type RequestTrace struct {
	Schema  string             `json:"schema"`
	TraceID string             `json:"trace_id"`
	Tenant  string             `json:"tenant"`
	Kind    string             `json:"kind"`
	ID      string             `json:"id"`
	Status  string             `json:"status"`
	Cache   string             `json:"cache,omitempty"`
	Error   string             `json:"error,omitempty"`
	StageMS map[string]float64 `json:"stage_ms"`
	Root    *TraceSpan         `json:"root"`

	mu    sync.Mutex
	now   func() time.Time
	start time.Time
	bus   *obs.Bus
	// detail arms the expensive per-write instrumentation (shadow-check
	// timing, heat-tile streaming): set when the client supplied its own
	// X-PN-Trace-Id or a /watch subscriber is attached.
	detail bool
}

func newRequestTrace(id, tenant, kind, workID string, now func() time.Time, bus *obs.Bus) *RequestTrace {
	rt := &RequestTrace{
		Schema:  obs.WatchSchema,
		TraceID: id,
		Tenant:  tenant,
		Kind:    kind,
		ID:      workID,
		StageMS: make(map[string]float64),
		Root:    &TraceSpan{Name: "request", Attrs: map[string]string{"kind": kind, "id": workID}},
		now:     now,
		start:   now(),
		bus:     bus,
	}
	if bus.Active() {
		bus.Publish(obs.KindSpanStart, id, tenant,
			map[string]string{"span": "request", "kind": kind, "id": workID})
	}
	return rt
}

// Ref returns the trace ID, or "" for a nil trace (an admission made
// without one).
func (rt *RequestTrace) Ref() string {
	if rt == nil {
		return ""
	}
	return rt.TraceID
}

// Detail reports whether per-write instrumentation is armed.
func (rt *RequestTrace) Detail() bool { return rt != nil && rt.detail }

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Stage records one completed stage as a child span of the root and
// folds its duration into the stage breakdown.
func (rt *RequestTrace) Stage(name string, begin, end time.Time, attrs map[string]string) {
	if rt == nil {
		return
	}
	startMS := durMS(begin.Sub(rt.start))
	dur := durMS(end.Sub(begin))
	rt.mu.Lock()
	rt.Root.Children = append(rt.Root.Children, &TraceSpan{
		Name: name, StartMS: startMS, DurMS: dur, Attrs: attrs,
	})
	rt.StageMS[name] += dur
	rt.mu.Unlock()
	if rt.bus.Active() {
		rt.bus.Publish(obs.KindSpanEnd, rt.TraceID, rt.Tenant, map[string]string{
			"span":     name,
			"start_ms": strconv.FormatFloat(startMS, 'g', -1, 64),
			"dur_ms":   strconv.FormatFloat(dur, 'g', -1, 64),
		})
	}
}

// finish freezes the trace: status, cache token, error text, root
// duration — and announces the terminal event on the bus.
func (rt *RequestTrace) finish(status, cacheToken string, err error) {
	if rt == nil {
		return
	}
	end := rt.now()
	rt.mu.Lock()
	rt.Status = status
	rt.Cache = cacheToken
	if err != nil {
		rt.Error = err.Error()
	}
	rt.Root.DurMS = durMS(end.Sub(rt.start))
	rt.mu.Unlock()
	if rt.bus.Active() {
		rt.bus.Publish(obs.KindTraceEnd, rt.TraceID, rt.Tenant, map[string]string{
			"status": status,
			"cache":  cacheToken,
			"dur_ms": strconv.FormatFloat(rt.Root.DurMS, 'g', -1, 64),
		})
	}
}

// TraceStore retains the most recent finished traces for GET
// /trace/{id}: a bounded FIFO over a map.
type TraceStore struct {
	mu    sync.Mutex
	cap   int
	byID  map[string]*RequestTrace
	order []string
}

// DefaultTraceCapacity bounds the store when the config leaves it 0.
const DefaultTraceCapacity = 256

// NewTraceStore builds a store holding the last capacity traces
// (<= 0 selects DefaultTraceCapacity).
func NewTraceStore(capacity int) *TraceStore {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &TraceStore{cap: capacity, byID: make(map[string]*RequestTrace)}
}

// Put stores a finished trace, evicting the oldest past capacity.
func (ts *TraceStore) Put(rt *RequestTrace) {
	if ts == nil || rt == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if _, dup := ts.byID[rt.TraceID]; !dup {
		ts.order = append(ts.order, rt.TraceID)
	}
	ts.byID[rt.TraceID] = rt
	for len(ts.order) > ts.cap {
		delete(ts.byID, ts.order[0])
		ts.order = ts.order[1:]
	}
}

// Get returns a finished trace by ID.
func (ts *TraceStore) Get(id string) (*RequestTrace, bool) {
	if ts == nil {
		return nil, false
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	rt, ok := ts.byID[id]
	return rt, ok
}

// timedShadow decorates a process's ShadowChecker with clock reads so
// the shadow_check stage reports how much of a request's latency the
// sanitizer's write checks cost. Armed only in detail mode: two clock
// reads per checked write is too hot for the default path.
type timedShadow struct {
	inner mem.ShadowChecker
	now   func() time.Time

	mu     sync.Mutex
	total  time.Duration
	checks uint64
}

func (ts *timedShadow) CheckWrite(addr mem.Addr, n uint64) *mem.Fault {
	t0 := ts.now()
	f := ts.inner.CheckWrite(addr, n)
	t1 := ts.now()
	ts.mu.Lock()
	ts.total += t1.Sub(t0)
	ts.checks++
	ts.mu.Unlock()
	return f
}

func (ts *timedShadow) Snapshot() any { return ts.inner.Snapshot() }
func (ts *timedShadow) Restore(v any) { ts.inner.Restore(v) }
func (ts *timedShadow) totals() (time.Duration, uint64) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.total, ts.checks
}

// heatFlushEvery is the coalescing window: heat-tile deltas are
// published to the bus once per this many observed writes (and once
// more at flush), so a hot loop costs map increments, not events.
const heatFlushEvery = 256

// heatStream converts a process's write stream into coalesced
// heat-tile delta events: per-byte counts accumulated over
// obs.HeatRowBytes-aligned tiles.
type heatStream struct {
	bus    *obs.Bus
	trace  string
	tenant string

	mu      sync.Mutex
	tiles   map[mem.Addr]*[obs.HeatRowBytes]uint64
	pending int
}

func newHeatStream(bus *obs.Bus, trace, tenant string) *heatStream {
	return &heatStream{bus: bus, trace: trace, tenant: tenant,
		tiles: make(map[mem.Addr]*[obs.HeatRowBytes]uint64)}
}

func (hs *heatStream) record(kind mem.AccessKind, addr mem.Addr, n uint64) {
	if kind != mem.AccessWrite || n == 0 {
		return
	}
	hs.mu.Lock()
	for i := uint64(0); i < n; i++ {
		a := addr.Add(int64(i))
		base := mem.Addr(uint64(a) / obs.HeatRowBytes * obs.HeatRowBytes)
		tile, ok := hs.tiles[base]
		if !ok {
			tile = new([obs.HeatRowBytes]uint64)
			hs.tiles[base] = tile
		}
		tile[uint64(a)-uint64(base)]++
	}
	hs.pending++
	if hs.pending >= heatFlushEvery {
		hs.flushLocked()
	}
	hs.mu.Unlock()
}

// flushLocked publishes one KindHeat event per dirty tile, tiles in
// address order so the stream is deterministic, then resets.
func (hs *heatStream) flushLocked() {
	if len(hs.tiles) == 0 {
		hs.pending = 0
		return
	}
	bases := make([]mem.Addr, 0, len(hs.tiles))
	for b := range hs.tiles {
		bases = append(bases, b)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	for _, base := range bases {
		tile := hs.tiles[base]
		var sb strings.Builder
		for i, c := range tile {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.FormatUint(c, 10))
		}
		hs.bus.Publish(obs.KindHeat, hs.trace, hs.tenant, map[string]string{
			"base":   fmt.Sprintf("%#x", uint64(base)),
			"counts": sb.String(),
		})
	}
	hs.tiles = make(map[mem.Addr]*[obs.HeatRowBytes]uint64)
	hs.pending = 0
}

func (hs *heatStream) flush() {
	hs.mu.Lock()
	hs.flushLocked()
	hs.mu.Unlock()
}

// publishSegments announces the observed process's segment geometry so
// stream consumers can rebuild an annotated heatmap.
func (hs *heatStream) publishSegments(segs []*mem.Segment) {
	var sb strings.Builder
	for i, s := range segs {
		if i > 0 {
			sb.WriteByte(';')
		}
		fmt.Fprintf(&sb, "%s:%#x:%#x", s.Kind.String(), uint64(s.Base), uint64(s.End()))
	}
	hs.bus.Publish(obs.KindHeatSegments, hs.trace, hs.tenant,
		map[string]string{"segments": sb.String()})
}

// publishMachineEvent streams one machine event (hijack, abort,
// dispatch, shadow violation) as it is recorded.
func publishMachineEvent(bus *obs.Bus, trace, tenant string, ev machine.Event) {
	bus.Publish(obs.KindEvent, trace, tenant, map[string]string{
		"event":  ev.Kind.String(),
		"detail": ev.Detail,
		"addr":   fmt.Sprintf("%#x", uint64(ev.Addr)),
	})
}
