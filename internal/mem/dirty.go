package mem

import "math/bits"

// DirtyTracker is the page-granular write ledger of a Memory. Every
// mutating path — Write (and everything layered on it: Memset, StrNCpy,
// WriteCString, the scalar writers), Poke, and checkpoint restores —
// marks the pages it touches; the tracker answers "which pages may
// differ from their state at the last Reset" without scanning any
// bytes.
//
// The tracker is an over-approximation by design: a write that stores
// the bytes already present still dirties its pages (no byte comparison
// happens on the write path), and a restore marks every page whose
// backing pointer it swapped. It is the cheap signal; the exact answer
// is DiffDirty against a checkpoint.
//
// The tracker is distinct from the copy-on-write machinery: COW state
// (the owned bits beside the dirty bits) says which pages the segment
// may write in place and is cleared by every checkpoint, while dirty
// bits are relative to the caller's last Reset. The dirty bitmap is
// what the serving layer's template-pool assertions and the chaos
// campaign's write-density accounting consume.
type DirtyTracker struct {
	m *Memory
}

// Dirty returns the memory's dirty tracker view. The view is a handle;
// it stays valid as segments are mapped.
func (m *Memory) Dirty() DirtyTracker { return DirtyTracker{m: m} }

// PageSize returns the tracking granularity in bytes.
func (DirtyTracker) PageSize() uint64 { return PageSize }

// Reset clears every dirty bit. Typically called right after a
// checkpoint so subsequent queries describe one run's write footprint.
func (t DirtyTracker) Reset() {
	for _, s := range t.m.segs {
		for i := range s.dirty {
			s.dirty[i] = 0
		}
		s.ndirty = 0
	}
}

// PageCount returns the total number of mapped pages.
func (t DirtyTracker) PageCount() int {
	var n int
	for _, s := range t.m.segs {
		n += len(s.pages)
	}
	return n
}

// DirtyPageCount returns the number of pages written since the last
// Reset, across all segments.
func (t DirtyTracker) DirtyPageCount() int {
	var n int
	for _, s := range t.m.segs {
		n += s.ndirty
	}
	return n
}

// DirtyBytes returns the number of mapped bytes covered by dirty pages
// (the final partial page of a segment counts only its mapped tail).
func (t DirtyTracker) DirtyBytes() uint64 {
	var n uint64
	for _, s := range t.m.segs {
		for _, i := range s.dirtyPages() {
			lo := uint64(i) << PageShift
			hi := lo + PageSize
			if hi > s.size {
				hi = s.size
			}
			n += hi - lo
		}
	}
	return n
}

// DirtyPages returns the dirty page indices of the (lowest-based)
// segment of the given kind, ascending. A nil result means the segment
// is clean or not mapped.
func (t DirtyTracker) DirtyPages(kind SegKind) []int {
	s := t.m.Segment(kind)
	if s == nil {
		return nil
	}
	return s.dirtyPages()
}

// SegmentDirtyCount returns the dirty page count of the (lowest-based)
// segment of the given kind, or 0 if not mapped.
func (t DirtyTracker) SegmentDirtyCount(kind SegKind) int {
	s := t.m.Segment(kind)
	if s == nil {
		return 0
	}
	return s.ndirty
}

// dirtyPages decodes the segment's bitmap into ascending page indices.
func (s *Segment) dirtyPages() []int {
	if s.ndirty == 0 {
		return nil
	}
	out := make([]int, 0, s.ndirty)
	for w, word := range s.dirty {
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			out = append(out, i)
			word &= word - 1
		}
	}
	return out
}
