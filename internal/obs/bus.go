package obs

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
)

// WatchSchema versions the live event stream: every consumer of the
// /watch endpoint (pntrace -follow, the CI watch-smoke job, curl) keys
// its parsing on this string, carried by the per-connection hello
// event. Bump it when BusEvent's wire shape changes.
const WatchSchema = "pnwatch/v1"

// Bus event kinds. The serving layer publishes these; filters on the
// /watch endpoint match against them.
const (
	// KindHello is the per-connection stream header (not sequence
	// numbered; synthesized by the endpoint, never stored in the ring).
	KindHello = "hello"
	// KindSpanStart/KindSpanEnd bracket one request stage (request,
	// queue, execute, clone, ...).
	KindSpanStart = "span-start"
	KindSpanEnd   = "span-end"
	// KindEvent is an instantaneous observation: a machine event, a
	// chaos injection, a shadow violation.
	KindEvent = "event"
	// KindMetric is a metric delta: a counter increment described by
	// name and labels.
	KindMetric = "metric"
	// KindHeat is a coalesced heatmap tile delta: per-byte write counts
	// over one HeatRowBytes-aligned tile.
	KindHeat = "heat"
	// KindHeatSegments announces the observed process's segment
	// geometry, so stream consumers can rebuild an annotated heatmap.
	KindHeatSegments = "heat-segments"
	// KindAdmission is an admission-control transition: admitted, shed
	// (with reason), and breaker state changes.
	KindAdmission = "admission"
	// KindTraceEnd is the terminal event of one request's stream: the
	// span tree is finished and queryable at /trace/{id}.
	KindTraceEnd = "trace-end"
	// KindGap is synthesized for a resuming subscriber whose cursor
	// fell off the ring: data carries the number of lost events.
	KindGap = "gap"
)

// BusEvent is one event on the live stream. Events are sequence
// numbered in publish order (Seq starts at 1) and stamped with the
// bus's logical tick — a counter, not wall time, so a deterministic
// run publishes a byte-identical stream.
type BusEvent struct {
	Seq  uint64 `json:"seq"`
	Tick uint64 `json:"tick"`
	Kind string `json:"kind"`
	// Trace/Tenant scope the event to one request, when it has one;
	// bus-global events (admission table state, gaps) leave them empty.
	Trace  string `json:"trace,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	// Data is the kind-specific payload. encoding/json marshals maps
	// with sorted keys, so rendering is deterministic.
	Data map[string]string `json:"data,omitempty"`
}

// Bus is a bounded ring-buffer event bus: the write side is
// non-blocking and effectively free when nobody is watching, the read
// side is per-subscriber cursors over the shared ring.
//
// The contract, in order of importance:
//
//   - Zero cost when idle. Publish first checks an atomic subscriber
//     count and returns before touching the ring, taking the lock, or
//     allocating. Callers building event payloads must gate on
//     Active() so the map literal itself is never constructed for an
//     unwatched run (TestBusInactivePublishAllocs pins this at zero
//     allocations).
//   - Never blocks the write path. Publish appends to the ring and
//     pokes each subscriber's 1-slot notify channel with a
//     non-blocking send. A slow subscriber is lapped: the ring
//     overwrites its unread events and its next read reports how many
//     were dropped — the writer never waits.
//   - Resumable. Events keep their sequence numbers while they remain
//     in the ring, so a reconnecting subscriber passes the last seq it
//     saw and replay continues from there (or a gap is reported if
//     the ring has moved on). Events published while no subscriber at
//     all was attached are not retained — that is the zero-cost
//     trade.
//
// All methods are nil-safe.
type Bus struct {
	mu     sync.Mutex
	ring   []BusEvent
	head   uint64 // seq of the next event to publish (== published count + 1... see below)
	tick   uint64 // logical clock, advanced per publish
	subs   map[int]*BusSubscriber
	nextID int

	active  atomic.Int32  // current subscriber count
	dropped atomic.Uint64 // events dropped across all subscribers, ever

	// OnSubscribers, when non-nil, receives the subscriber count after
	// every subscribe/unsubscribe (the pn_serve_watch_subscribers
	// gauge seam). OnDrop receives per-lap drop counts (the
	// pn_serve_watch_dropped_events_total counter seam). Both are
	// called outside the bus lock.
	OnSubscribers func(n int)
	OnDrop        func(n uint64)
}

// DefaultBusCapacity is the ring size when NewBus is given none: large
// enough to hold a full request's span/heat/event stream many times
// over, small enough to bound memory at a few MB.
const DefaultBusCapacity = 4096

// NewBus builds a bus with the given ring capacity (<= 0 selects
// DefaultBusCapacity).
func NewBus(capacity int) *Bus {
	if capacity <= 0 {
		capacity = DefaultBusCapacity
	}
	return &Bus{
		ring: make([]BusEvent, 0, capacity),
		subs: make(map[int]*BusSubscriber),
	}
}

// Active reports whether any subscriber is attached. It is a single
// atomic load — the zero-cost gate event producers check before
// building payloads.
func (b *Bus) Active() bool {
	return b != nil && b.active.Load() > 0
}

// Dropped returns the total number of events dropped on slow
// subscribers since the bus was built.
func (b *Bus) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return b.dropped.Load()
}

// Publish appends one event to the ring and wakes subscribers. It is a
// no-op (one atomic load) when no subscriber is attached. The event's
// Seq and Tick are assigned here, in publish order.
func (b *Bus) Publish(kind, trace, tenant string, data map[string]string) {
	if b == nil || b.active.Load() == 0 {
		return
	}
	b.mu.Lock()
	b.head++
	b.tick++
	ev := BusEvent{Seq: b.head, Tick: b.tick, Kind: kind, Trace: trace, Tenant: tenant, Data: data}
	if len(b.ring) < cap(b.ring) {
		b.ring = append(b.ring, ev)
	} else {
		b.ring[int((ev.Seq-1)%uint64(cap(b.ring)))] = ev
	}
	subs := make([]*BusSubscriber, 0, len(b.subs))
	for _, s := range b.subs {
		subs = append(subs, s)
	}
	b.mu.Unlock()
	for _, s := range subs {
		select {
		case s.notify <- struct{}{}:
		default: // already poked; it will drain the ring when it reads
		}
	}
}

// tailLocked returns the seq of the oldest event still in the ring
// (head - len + 1), or head+1 when the ring is empty.
func (b *Bus) tailLocked() uint64 {
	if len(b.ring) == 0 {
		return b.head + 1
	}
	return b.head - uint64(len(b.ring)) + 1
}

// BusSubscriber is one reader's cursor over the ring. Read events with
// Next; always Close when done.
type BusSubscriber struct {
	bus    *Bus
	id     int
	cursor uint64 // seq of the next event to deliver
	notify chan struct{}
	done   chan struct{}
	once   sync.Once

	dropped atomic.Uint64
}

// Subscribe attaches a reader. afterSeq is the last sequence number
// the reader has already seen: 0 starts at the next published event
// for a fresh reader, while a resuming reader passes its Last-Event-ID
// and replay continues from the ring. If the requested events have
// been overwritten, the first Next returns a synthetic KindGap event
// reporting the loss.
func (b *Bus) Subscribe(afterSeq uint64) *BusSubscriber {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	b.nextID++
	s := &BusSubscriber{
		bus:    b,
		id:     b.nextID,
		cursor: b.head + 1,
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	if afterSeq > 0 && afterSeq < b.head {
		s.cursor = afterSeq + 1 // replay what the ring still holds
	}
	b.subs[s.id] = s
	n := len(b.subs)
	b.mu.Unlock()
	b.active.Add(1)
	if b.OnSubscribers != nil {
		b.OnSubscribers(n)
	}
	return s
}

// Close detaches the subscriber. Idempotent; pending Next calls
// unblock and report closure.
func (s *BusSubscriber) Close() {
	if s == nil {
		return
	}
	s.once.Do(func() {
		b := s.bus
		b.mu.Lock()
		delete(b.subs, s.id)
		n := len(b.subs)
		b.mu.Unlock()
		b.active.Add(-1)
		close(s.done)
		if b.OnSubscribers != nil {
			b.OnSubscribers(n)
		}
	})
}

// Dropped returns how many events this subscriber has lost to ring
// laps so far.
func (s *BusSubscriber) Dropped() uint64 {
	if s == nil {
		return 0
	}
	return s.dropped.Load()
}

// Next blocks until an event is available, the context ends, or the
// subscriber is closed. ok is false on context end / closure. When the
// producer has lapped this subscriber's cursor, Next first returns a
// synthetic KindGap event whose data reports the number of lost
// events, then resumes from the oldest event still held.
func (s *BusSubscriber) Next(ctx context.Context) (BusEvent, bool) {
	if s == nil {
		return BusEvent{}, false
	}
	for {
		b := s.bus
		b.mu.Lock()
		if tail := b.tailLocked(); s.cursor < tail {
			lost := tail - s.cursor
			s.cursor = tail
			tick := b.tick
			b.mu.Unlock()
			s.dropped.Add(lost)
			b.dropped.Add(lost)
			if b.OnDrop != nil {
				b.OnDrop(lost)
			}
			return BusEvent{Tick: tick, Kind: KindGap,
				Data: map[string]string{"lost": strconv.FormatUint(lost, 10)}}, true
		}
		if s.cursor <= b.head {
			ev := b.ring[int((s.cursor-1)%uint64(cap(b.ring)))]
			s.cursor++
			b.mu.Unlock()
			return ev, true
		}
		b.mu.Unlock()
		select {
		case <-s.notify:
		case <-ctx.Done():
			return BusEvent{}, false
		case <-s.done:
			return BusEvent{}, false
		}
	}
}
