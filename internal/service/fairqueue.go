package service

import (
	"container/list"
	"sync"
	"time"
)

// fqState is an entry's lifecycle inside the fair queue.
type fqState int

const (
	fqQueued  fqState = iota // waiting in its tenant queue
	fqClaimed                // handed to a worker; the worker owns completion
	fqRemoved                // cancelled while queued; slot and tokens refunded
)

// fqEntry is one queued request plus the bookkeeping the fair queue
// needs to serve, age, or surgically remove it.
type fqEntry struct {
	t        *task
	tenant   string
	lane     Priority
	seq      uint64    // global admission order, for deterministic aging
	enq      time.Time // admission time on the queue's clock
	state    fqState
	elem     *list.Element
	promoted bool // served via aging promotion rather than lane order
}

// fqTenant is one tenant's FIFO within a lane.
type fqTenant struct {
	name string
	q    *list.List // of *fqEntry
}

// fqLane is one priority lane: a ring of active (backlogged) tenants
// drained round-robin.
type fqLane struct {
	tenants map[string]*fqTenant
	ring    []*fqTenant // active tenants, rotation order
	rr      int         // ring cursor
	size    int
}

// pushResult is the admission verdict for one push.
type pushResult int

const (
	pushOK pushResult = iota
	pushFull
	pushClosed
)

// fairQueue is the scheduler's indexed multi-queue: per lane, per
// tenant FIFOs drained round-robin (fair queueing with unit-cost
// tasks), with priority aging promoting long-waiting work from any
// lane ahead of strict priority order so nothing starves. Entries are
// individually removable, so a request cancelled while queued releases
// its slot immediately instead of being lazily skipped by a worker.
type fairQueue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	lanes    [laneCount]fqLane
	capacity int           // per-lane bound
	aging    time.Duration // wait at which any entry outranks lane order (0 = off)
	now      func() time.Time
	seq      uint64
	total    int
	closed   bool

	promotions uint64              // entries served via aging
	onPromote  func(tenant string) // metrics seam; called with fq.mu held
}

const laneCount = 3

func newFairQueue(capacity int, aging time.Duration, now func() time.Time) *fairQueue {
	if now == nil {
		now = time.Now
	}
	fq := &fairQueue{capacity: capacity, aging: aging, now: now}
	fq.cond = sync.NewCond(&fq.mu)
	for i := range fq.lanes {
		fq.lanes[i].tenants = make(map[string]*fqTenant)
	}
	return fq
}

// push admits t into its tenant's FIFO in lane. A full lane or a
// closed queue refuses; the caller maps that onto a Rejection. A
// non-nil queued runs once t is queued, with fq.mu held, so it happens
// before any worker can claim t.
func (fq *fairQueue) push(t *task, tenant string, lane Priority, queued func()) (*fqEntry, pushResult) {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	if fq.closed {
		return nil, pushClosed
	}
	l := &fq.lanes[lane]
	if l.size >= fq.capacity {
		return nil, pushFull
	}
	tq, ok := l.tenants[tenant]
	if !ok {
		tq = &fqTenant{name: tenant, q: list.New()}
		l.tenants[tenant] = tq
	}
	if tq.q.Len() == 0 {
		// (Re)activation: a newly backlogged tenant joins the rotation
		// at its end.
		l.ring = append(l.ring, tq)
	}
	fq.seq++
	e := &fqEntry{t: t, tenant: tenant, lane: lane, seq: fq.seq, enq: fq.now()}
	e.elem = tq.q.PushBack(e)
	l.size++
	fq.total++
	if queued != nil {
		queued()
	}
	fq.cond.Signal()
	return e, pushOK
}

// pop blocks until an entry is available (or the queue is closed and
// empty, returning nil). Workers call this.
func (fq *fairQueue) pop() *fqEntry {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	for {
		if e := fq.tryPopLocked(); e != nil {
			return e
		}
		if fq.closed {
			return nil
		}
		fq.cond.Wait()
	}
}

func (fq *fairQueue) tryPopLocked() *fqEntry {
	if fq.total == 0 {
		return nil
	}
	now := fq.now()
	// Priority aging: any entry that has waited past the threshold
	// outranks lane order — oldest first, so low-priority work admitted
	// long ago cannot be starved by a steady high-priority stream. Only
	// tenant-queue heads can be oldest (FIFOs), so the scan is
	// O(active tenants).
	if fq.aging > 0 {
		var aged *fqEntry
		for li := range fq.lanes {
			for _, tq := range fq.lanes[li].ring {
				head := tq.q.Front().Value.(*fqEntry)
				if now.Sub(head.enq) >= fq.aging && (aged == nil || head.seq < aged.seq) {
					aged = head
				}
			}
		}
		if aged != nil {
			aged.promoted = true
			fq.promotions++
			if fq.onPromote != nil {
				fq.onPromote(aged.tenant)
			}
			fq.serveLocked(aged)
			return aged
		}
	}
	// Strict priority across lanes; round-robin across tenants inside
	// the chosen lane: each turn serves one entry, then the cursor moves
	// to the next backlogged tenant.
	for li := range fq.lanes {
		l := &fq.lanes[li]
		if l.size == 0 {
			continue
		}
		tq := l.ring[l.rr]
		e := tq.q.Front().Value.(*fqEntry)
		// Serving may deactivate tq, splicing it out of the ring and
		// leaving the cursor on its successor already.
		fq.serveLocked(e)
		if tq.q.Len() > 0 {
			l.rr = (l.rr + 1) % len(l.ring)
		}
		return e
	}
	return nil
}

// serveLocked claims e: unlinks it from its tenant queue and updates
// lane accounting.
func (fq *fairQueue) serveLocked(e *fqEntry) {
	l := &fq.lanes[e.lane]
	tq := l.tenants[e.tenant]
	tq.q.Remove(e.elem)
	e.elem = nil
	e.state = fqClaimed
	l.size--
	fq.total--
	if tq.q.Len() == 0 {
		fq.deactivateLocked(l, tq)
	}
}

// remove cancels a still-queued entry, releasing its slot. It reports
// false when a worker already claimed the entry (or it was removed),
// in which case the worker owns completion and accounting.
func (fq *fairQueue) remove(e *fqEntry) bool {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	if e.state != fqQueued {
		return false
	}
	l := &fq.lanes[e.lane]
	tq := l.tenants[e.tenant]
	tq.q.Remove(e.elem)
	e.elem = nil
	e.state = fqRemoved
	l.size--
	fq.total--
	if tq.q.Len() == 0 {
		fq.deactivateLocked(l, tq)
	}
	return true
}

// deactivateLocked drops an emptied tenant queue out of the rotation,
// keeping the cursor stable.
func (fq *fairQueue) deactivateLocked(l *fqLane, tq *fqTenant) {
	for i, cand := range l.ring {
		if cand == tq {
			l.ring = append(l.ring[:i], l.ring[i+1:]...)
			if i < l.rr {
				l.rr--
			}
			break
		}
	}
	if l.rr >= len(l.ring) {
		l.rr = 0
	}
	delete(l.tenants, tq.name)
}

// close stops admission; queued entries still drain through pop.
func (fq *fairQueue) close() {
	fq.mu.Lock()
	fq.closed = true
	fq.cond.Broadcast()
	fq.mu.Unlock()
}

// len returns one lane's depth.
func (fq *fairQueue) len(lane Priority) int {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	return fq.lanes[lane].size
}

// Promotions returns how many entries were served via aging.
func (fq *fairQueue) Promotions() uint64 {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	return fq.promotions
}
