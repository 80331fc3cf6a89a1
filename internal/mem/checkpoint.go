package mem

import "fmt"

// segState is one segment's saved contents and permissions inside a
// Checkpoint. The contents are a page table shared with whoever else
// holds it; neither the table nor any page in it has an owner, so
// neither is ever written again (see paging.go).
type segState struct {
	kind  SegKind
	base  Addr
	perm  Perm
	size  uint64
	pages []*page
}

// Checkpoint is a whole-address-space snapshot: every mapped segment's
// bytes and permissions at the moment of capture. It extends the
// range-level Snapshot/Diff machinery in dump.go to the full process
// image, which is what supervised crash recovery needs — after a faulted
// run the image is rolled back wholesale, not range by range.
//
// A Checkpoint is immutable once taken and independent of the Memory it
// came from; it remains valid across arbitrary program writes and
// Protect calls. CowCheckpoint captures one by sharing the segments'
// page tables by reference — O(segments), whatever their size. The
// copy is deferred to the writes that actually happen afterwards
// (copy-on-write), so a run that dirties k pages pays for k page
// copies, not for the whole image.
type Checkpoint struct {
	segs []segState
	// shadow is the attached ShadowChecker's opaque snapshot, captured
	// when a checker was installed at checkpoint time. RestoreDirty
	// hands it back so shadow state (red zones, quarantine) rolls back
	// in lockstep with the data pages it describes.
	shadow any
}

// NumSegments returns the number of segments captured.
func (cp *Checkpoint) NumSegments() int { return len(cp.segs) }

// Bytes returns the total number of logical data bytes held by the
// checkpoint (the mapped sizes, regardless of page sharing).
func (cp *Checkpoint) Bytes() uint64 {
	var n uint64
	for _, s := range cp.segs {
		n += s.size
	}
	return n
}

// CowCheckpoint captures every mapped segment by sharing its page
// table — O(segments) instead of O(bytes) copying. The capture clears
// the memory's owned bits, so the next write to each page copies it
// first (and the first write to a segment copies its table); a run that
// dirties few pages therefore pays a total copy cost proportional to
// what it dirtied. Like Snapshot it reads the raw segment state —
// access hooks, permissions, and guards do not apply: checkpointing is
// harness machinery, not program behaviour.
func (m *Memory) CowCheckpoint() *Checkpoint {
	cp := &Checkpoint{segs: make([]segState, 0, len(m.segs))}
	for _, s := range m.segs {
		cp.segs = append(cp.segs, segState{kind: s.Kind, base: s.Base, perm: s.Perm, size: s.size, pages: s.pages})
		s.owned = nil
	}
	if m.shadow != nil {
		cp.shadow = m.shadow.Snapshot()
	}
	return cp
}

// verifyLayout checks that the checkpoint's segment layout matches the
// memory's current layout (same count, kinds, bases, and sizes).
func (m *Memory) verifyLayout(cp *Checkpoint, op string) error {
	if cp == nil {
		return fmt.Errorf("mem: %s: nil checkpoint", op)
	}
	if len(cp.segs) != len(m.segs) {
		return fmt.Errorf("mem: %s: checkpoint has %d segments, memory has %d",
			op, len(cp.segs), len(m.segs))
	}
	for i, st := range cp.segs {
		s := m.segs[i]
		if s.Kind != st.kind || s.Base != st.base || s.size != st.size {
			return fmt.Errorf("mem: %s: segment %d mismatch: checkpoint %s [%#x,+%d), memory %s [%#x,+%d)",
				op, i, st.kind, uint64(st.base), st.size, s.Kind, uint64(s.Base), s.size)
		}
	}
	return nil
}

// RestoreDirty rolls every segment's bytes and permissions back to the
// checkpointed state, touching only the pages that differ from the
// checkpoint, and reports how many pages that was. The segment layout
// must match the checkpoint's (restore does not remap segments); guards,
// the write logger, and any access hook are left installed and do not
// observe the restore. Pages are compared by identity — a page still
// shared with the checkpoint cannot have changed (it has no owner, so
// writers copy it first), so only the pages that differ are marked in
// the dirty tracker (their bytes changed) and counted. The segment then
// adopts the checkpoint's page table, owning none of it, so the
// checkpoint stays intact when restored pages are written. After a
// successful restore, DiffDirty against the same checkpoint reports no
// differences.
func (m *Memory) RestoreDirty(cp *Checkpoint) (restored int, err error) {
	if err := m.verifyLayout(cp, "restore"); err != nil {
		return 0, err
	}
	for i, st := range cp.segs {
		s := m.segs[i]
		for j, cpg := range st.pages {
			if s.pages[j] != cpg {
				s.markDirtyRange(j, j)
				restored++
			}
		}
		s.pages, s.owned = st.pages, nil
		s.Perm = st.perm
	}
	if m.shadow != nil && cp.shadow != nil {
		m.shadow.Restore(cp.shadow)
	}
	return restored, nil
}

// DiffDirty compares current memory against a checkpoint and returns
// every changed run across all segments in ascending address order —
// the whole-image analogue of Diff. It works over the page structure: a
// page still shared with the checkpoint is skipped in O(1) (identity
// implies equality), and only pages that were copied-on-write since the
// capture are byte-compared, changed runs merging across page
// boundaries as a flat byte-wise diff would.
func (m *Memory) DiffDirty(cp *Checkpoint) ([]DiffRegion, error) {
	if err := m.verifyLayout(cp, "diff checkpoint"); err != nil {
		return nil, err
	}
	var out []DiffRegion
	for i, st := range cp.segs {
		out = append(out, diffPages(st.base, st.pages, m.segs[i].pages, st.size)...)
	}
	return out, nil
}

// diffPages computes the changed runs between two page arrays of the
// same logical size starting at base. Runs merge across page boundaries
// so the output matches a flat byte-wise diff exactly.
func diffPages(base Addr, old, cur []*page, size uint64) []DiffRegion {
	var out []DiffRegion
	var run *DiffRegion
	flush := func() {
		if run != nil {
			out = append(out, *run)
			run = nil
		}
	}
	for pi := range old {
		if old[pi] == cur[pi] {
			// Identical page pointer: bytes are equal; any open run ends
			// at this page's first byte.
			flush()
			continue
		}
		lo := uint64(pi) << PageShift
		hi := lo + PageSize
		if hi > size {
			hi = size
		}
		ob, cb := old[pi], cur[pi]
		for off := lo; off < hi; off++ {
			po := off & (PageSize - 1)
			if ob[po] == cb[po] {
				flush()
				continue
			}
			if run == nil {
				run = &DiffRegion{Addr: base.Add(int64(off))}
			}
			run.Old = append(run.Old, ob[po])
			run.New = append(run.New, cb[po])
		}
		// A run touching the last byte of this page may continue into
		// the next page: leave it open.
	}
	flush()
	return out
}

// NewImage clones the checkpoint into a fresh address space: every
// segment is rebuilt sharing the checkpoint's page table by reference,
// so the clone copies no page pointer and no byte. The clone owns
// neither the tables nor the pages, so its writes copy-on-write away
// from the checkpoint; the checkpoint (and anything else cloned from
// it) never observes them. The image's canonical segment fields (Text,
// Heap, Stack, …) are resolved by kind where present and left nil
// otherwise.
//
// The clone takes five allocations whatever the segment count: the
// image, its Memory, the segment list, the segments, and one dirty
// bitmap array that every segment slices. cp.segs is already in base
// order, so nothing is sorted.
//
// This is the mechanism underneath the serving layer's image template
// pool: construct once, CowCheckpoint once, clone per request.
func (cp *Checkpoint) NewImage() (*Image, error) {
	if cp == nil {
		return nil, fmt.Errorf("mem: new image: nil checkpoint")
	}
	var nwords int
	for _, st := range cp.segs {
		nwords += bitmapWords(len(st.pages))
	}
	m := &Memory{segs: make([]*Segment, len(cp.segs))}
	img := &Image{Mem: m}
	segs := make([]Segment, len(cp.segs))
	dirty := make([]uint64, nwords)
	for i, st := range cp.segs {
		w := bitmapWords(len(st.pages))
		seg := &segs[i]
		*seg = Segment{
			Kind: st.kind, Base: st.base, Perm: st.perm,
			size:  st.size,
			pages: st.pages,
			dirty: dirty[:w:w],
		}
		dirty = dirty[w:]
		m.segs[i] = seg
		if out := img.slotFor(st.kind); out != nil && *out == nil {
			*out = seg
		}
	}
	return img, nil
}

// slotFor returns the image's canonical field for a segment kind, or
// nil for kinds outside the canonical six.
func (img *Image) slotFor(kind SegKind) **Segment {
	switch kind {
	case SegText:
		return &img.Text
	case SegROData:
		return &img.ROData
	case SegData:
		return &img.Data
	case SegBSS:
		return &img.BSS
	case SegHeap:
		return &img.Heap
	case SegStack:
		return &img.Stack
	}
	return nil
}
