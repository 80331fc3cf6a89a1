package mem

// The address space is organised in fixed-size pages so that snapshots,
// rollback, and image cloning can work at page granularity instead of
// whole-address-space granularity. 4 KiB matches the paper's i386
// testbed page size; it is also the sweet spot measured in
// docs/perf.md — small enough that a sparse chaos trial dirties only a
// handful of pages, large enough that the per-page bookkeeping (one
// pointer, one dirty bit, one owned bit) stays negligible against
// segment sizes.
const (
	// PageShift is log2(PageSize).
	PageShift = 12
	// PageSize is the granularity of dirty tracking and copy-on-write
	// sharing, in bytes.
	PageSize = 1 << PageShift
)

// page is one page of segment backing store. Pages, and whole page
// tables, are shared between a live Segment, its Checkpoints and, through
// the ImagePool, every Segment cloned from one template. Sharing is
// tracked by the holder: a Segment's owned bitmap marks the pages it may
// write in place, and is nil while its page table is shared. The
// invariant that makes sharing safe:
//
//	a page is written in place only by the one segment that owns it,
//	and no page a checkpoint or clone can reach has an owner.
//
// Every write path calls ownPage, which copies a shared table and an
// unowned page before mutating them. A page never regains an owner, so
// whatever a checkpoint holds stays immutable, and clones on different
// goroutines copy the same template page without writing a shared word.
type page [PageSize]byte

// pagesFor returns the number of pages backing n bytes.
func pagesFor(n uint64) int { return int((n + PageSize - 1) >> PageShift) }

// bitmapWords returns the number of uint64 words in a one-bit-per-page
// bitmap over n pages.
func bitmapWords(n int) int { return (n + 63) / 64 }

// newPages allocates n bytes of fresh zeroed backing pages, returned
// with an owned bitmap marking every one of them owned by the caller.
// The pages come from one allocation: 4096-byte objects fill an 8 KiB
// span two at a time, so allocating them one by one costs a span
// refill every other page.
func newPages(n uint64) (ps []*page, owned []uint64) {
	block := make([]page, pagesFor(n))
	ps = make([]*page, len(block))
	owned = make([]uint64, bitmapWords(len(block)))
	for i := range block {
		ps[i] = &block[i]
		owned[i>>6] |= 1 << (uint(i) & 63)
	}
	return ps, owned
}

// ownPage returns page i of the segment, copying it first unless the
// segment owns it — the copy-on-write step. A shared page table is
// copied before its first entry is replaced. The page copy is made by
// append, which fills a fresh allocation straight from the source
// instead of zeroing it first.
func (s *Segment) ownPage(i int) *page {
	w, b := i>>6, uint64(1)<<(uint(i)&63)
	if s.owned == nil {
		s.pages = append([]*page(nil), s.pages...)
		s.owned = make([]uint64, bitmapWords(len(s.pages)))
	} else if s.owned[w]&b != 0 {
		return s.pages[i]
	}
	np := (*page)(append([]byte(nil), s.pages[i][:]...))
	s.pages[i] = np
	s.owned[w] |= b
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
// unowned pages and feeding the dirty tracker. Zero-length writes touch
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
		copy(pg[po:po+n], b[:n])
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
		copy(dst[:n], s.pages[pi][po:po+n])
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
