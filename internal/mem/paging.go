package mem

import "sync/atomic"

// The address space is organised in fixed-size pages so that snapshots,
// rollback, and image cloning can work at page granularity instead of
// whole-address-space granularity. 4 KiB matches the paper's i386
// testbed page size; it is also the sweet spot measured in
// docs/perf.md — small enough that a sparse chaos trial dirties only a
// handful of pages, large enough that the per-page bookkeeping (one
// pointer + one dirty bit) stays negligible against segment sizes.
const (
	// PageShift is log2(PageSize).
	PageShift = 12
	// PageSize is the granularity of dirty tracking and copy-on-write
	// sharing, in bytes.
	PageSize = 1 << PageShift
)

// page is one reference-counted page of segment backing store. Pages are
// shared between a live Segment and any number of Checkpoints (and,
// through the ImagePool, between many live Segments cloned from the same
// template). The invariant that makes sharing safe:
//
//	a page with refs > 1 is immutable — every write path calls
//	ownPage first, which copies a shared page before mutating it
//	(copy-on-write).
//
// The reference count is atomic because checkpoints cross goroutines:
// two processes cloned from one template may copy-on-write (and thus
// release) the same shared page concurrently. Everything else about a
// Memory remains single-threaded, as documented on the type.
//
// The count is 64-bit because a clone that is garbage collected never
// gives its references back: every template page a clone leaves
// unwritten keeps one more reference per clone for as long as the pool
// serves. A 32-bit count wraps negative after 2³¹ clones, shared()
// turns false, and the next clone to write the page writes into the
// template.
type page struct {
	refs atomic.Int64
	data [PageSize]byte
}

// newPage returns a fresh zeroed page owned by exactly one holder.
func newPage() *page {
	p := &page{}
	p.refs.Store(1)
	return p
}

// get acquires an additional reference and returns p.
func (p *page) get() *page {
	p.refs.Add(1)
	return p
}

// put releases one reference. Pages are garbage collected; a count of
// zero simply means no segment or checkpoint holds the page any more.
func (p *page) put() { p.refs.Add(-1) }

// shared reports whether any other holder references the page, in which
// case it must not be written in place.
func (p *page) shared() bool { return p.refs.Load() > 1 }

// pagesFor returns the number of pages backing n bytes.
func pagesFor(n uint64) int { return int((n + PageSize - 1) >> PageShift) }

// newPages allocates n bytes of fresh zeroed backing pages.
func newPages(n uint64) []*page {
	ps := make([]*page, pagesFor(n))
	for i := range ps {
		ps[i] = newPage()
	}
	return ps
}

// ownPage returns page i of the segment, copying it first if it is
// shared with a checkpoint or another segment — the copy-on-write step.
func (s *Segment) ownPage(i int) *page {
	p := s.pages[i]
	if !p.shared() {
		return p
	}
	np := newPage()
	np.data = p.data
	p.put()
	s.pages[i] = np
	return np
}

// markDirtyRange sets the dirty bits for pages [first, last].
func (s *Segment) markDirtyRange(first, last int) {
	for i := first; i <= last; i++ {
		w, b := i>>6, uint64(1)<<(uint(i)&63)
		if s.dirty[w]&b == 0 {
			s.dirty[w] |= b
			s.ndirty++
		}
	}
}

// writeRaw copies b into the segment at byte offset off, copy-on-writing
// shared pages and feeding the dirty tracker. Zero-length writes touch
// nothing and dirty nothing. Bounds are the caller's responsibility
// (every caller has already resolved the segment via seg()).
func (s *Segment) writeRaw(off uint64, b []byte) {
	if len(b) == 0 {
		return
	}
	s.markDirtyRange(int(off>>PageShift), int((off+uint64(len(b))-1)>>PageShift))
	for len(b) > 0 {
		pi := int(off >> PageShift)
		po := off & (PageSize - 1)
		n := uint64(PageSize) - po
		if uint64(len(b)) < n {
			n = uint64(len(b))
		}
		pg := s.ownPage(pi)
		copy(pg.data[po:po+n], b[:n])
		off += n
		b = b[n:]
	}
}

// WriteRun copies b into the segment at byte offset off, bypassing the
// access pipeline entirely — no permission check, no guards, no shadow
// validation, no hooks, no logging. It is the store primitive of the
// compiled dispatch loop (internal/compile): the recorded run already
// paid every check, so replay needs only the COW page copy and the
// dirty accounting, which WriteRun shares with the checked path. The
// single bounds check here is the whole per-op validation cost.
func (s *Segment) WriteRun(off uint64, b []byte) error {
	if off+uint64(len(b)) > s.size || off+uint64(len(b)) < off {
		return &Fault{Kind: FaultUnmapped, Addr: s.Base.Add(int64(off)), Size: uint64(len(b))}
	}
	s.writeRaw(off, b)
	return nil
}

// readRaw copies len(dst) bytes starting at byte offset off into dst.
func (s *Segment) readRaw(off uint64, dst []byte) {
	for len(dst) > 0 {
		pi := int(off >> PageShift)
		po := off & (PageSize - 1)
		n := uint64(PageSize) - po
		if uint64(len(dst)) < n {
			n = uint64(len(dst))
		}
		copy(dst[:n], s.pages[pi].data[po:po+n])
		off += n
		dst = dst[n:]
	}
}

// bytes materialises the whole segment as one flat copy.
func (s *Segment) bytes() []byte {
	out := make([]byte, s.size)
	s.readRaw(0, out)
	return out
}
