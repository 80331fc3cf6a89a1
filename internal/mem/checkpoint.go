package mem

import (
	"fmt"
	"sort"
)

// segState is one segment's saved contents and permissions inside a
// Checkpoint. The contents are held as reference-counted pages shared
// with whoever else holds them (see paging.go); a deep checkpoint simply
// owns fresh copies of every page.
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
// Protect calls. Two capture flavours exist:
//
//   - Checkpoint copies every byte up front — O(address space), always.
//   - CowCheckpoint shares the segments' pages by reference — O(pages)
//     pointer operations. The copy is deferred to the writes that
//     actually happen afterwards (copy-on-write), so a run that dirties
//     k pages pays for k page copies, not for the whole image.
//
// Both flavours observe byte-identical semantics through Restore,
// RestoreDirty, DiffCheckpoint, and DiffDirty.
type Checkpoint struct {
	segs []segState
	cow  bool
	// shadow is the attached ShadowChecker's opaque snapshot, captured
	// when a checker was installed at checkpoint time. Restore hands
	// it back so shadow state (red zones, quarantine) rolls back in
	// lockstep with the data pages it describes.
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

// COW reports whether the checkpoint was captured by CowCheckpoint.
func (cp *Checkpoint) COW() bool { return cp.cow }

// Checkpoint captures every mapped segment by deep copy. Like Snapshot
// it reads the raw segment bytes directly — access hooks, permissions,
// and guards do not apply: checkpointing is harness machinery, not
// program behaviour. Prefer CowCheckpoint on hot paths; the deep copy
// remains for callers that want capture cost paid eagerly (and as the
// baseline the BENCH_MEM.json benchmarks compare against).
func (m *Memory) Checkpoint() *Checkpoint {
	cp := &Checkpoint{segs: make([]segState, 0, len(m.segs))}
	for _, s := range m.segs {
		ps := make([]*page, len(s.pages))
		for i, p := range s.pages {
			np := newPage()
			np.data = p.data
			ps[i] = np
		}
		cp.segs = append(cp.segs, segState{kind: s.Kind, base: s.Base, perm: s.Perm, size: s.size, pages: ps})
	}
	if m.shadow != nil {
		cp.shadow = m.shadow.Snapshot()
	}
	return cp
}

// CowCheckpoint captures every mapped segment by sharing its pages —
// O(pages) pointer operations instead of O(bytes) copying. After the
// capture the memory's own pages are shared, so the next write to each
// page copies it first; a run that dirties few pages therefore pays a
// total copy cost proportional to what it dirtied. Semantics are
// byte-for-byte those of Checkpoint.
func (m *Memory) CowCheckpoint() *Checkpoint {
	cp := &Checkpoint{cow: true, segs: make([]segState, 0, len(m.segs))}
	for _, s := range m.segs {
		ps := make([]*page, len(s.pages))
		for i, p := range s.pages {
			ps[i] = p.get()
		}
		cp.segs = append(cp.segs, segState{kind: s.Kind, base: s.Base, perm: s.Perm, size: s.size, pages: ps})
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

// Restore rolls every segment's bytes and permissions back to the
// checkpointed state. The segment layout must match the checkpoint's
// (restore does not remap segments); guards, the write logger, and any
// access hook are left installed and do not observe the restore. After a successful Restore, DiffCheckpoint against the same
// checkpoint reports no differences.
func (m *Memory) Restore(cp *Checkpoint) error {
	_, err := m.RestoreDirty(cp)
	return err
}

// RestoreDirty is Restore with its work surface exposed: it rolls the
// address space back to cp touching only the pages that differ from the
// checkpoint, and reports how many pages that was. Pages are compared by
// identity — a page still shared with the checkpoint cannot have changed
// (writers copy-on-write shared pages), so an attempt that dirtied k
// pages restores in O(k) pointer swaps, not O(address space). Restored
// pages are marked in the dirty tracker (their bytes changed).
func (m *Memory) RestoreDirty(cp *Checkpoint) (restored int, err error) {
	if err := m.verifyLayout(cp, "restore"); err != nil {
		return 0, err
	}
	for i, st := range cp.segs {
		s := m.segs[i]
		for j, cpg := range st.pages {
			if s.pages[j] == cpg {
				continue
			}
			s.pages[j].put()
			s.pages[j] = cpg.get()
			s.markDirtyRange(j, j)
			restored++
		}
		s.Perm = st.perm
	}
	if m.shadow != nil && cp.shadow != nil {
		m.shadow.Restore(cp.shadow)
	}
	return restored, nil
}

// DiffCheckpoint compares current memory against a checkpoint and
// returns every changed run across all segments in ascending address
// order — the whole-image analogue of Diff.
func (m *Memory) DiffCheckpoint(cp *Checkpoint) ([]DiffRegion, error) {
	return m.DiffDirty(cp)
}

// DiffDirty is DiffCheckpoint implemented over the page structure: a
// page still shared with the checkpoint is skipped in O(1) (identity
// implies equality), and only pages that were copied-on-write since the
// capture are byte-compared. The output is byte-identical to a full
// DiffCheckpoint scan, changed runs merging across page boundaries as
// they always did.
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
		ob, cb := &old[pi].data, &cur[pi].data
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
// segment is rebuilt sharing the checkpoint's pages by reference, so the
// clone costs O(pages) pointer operations and zero byte copies. Writes
// to the clone copy-on-write away from the checkpoint; the checkpoint
// (and anything else cloned from it) never observes them. The image's
// canonical segment fields (Text, Heap, Stack, …) are resolved by kind
// where present and left nil otherwise.
//
// This is the mechanism underneath the serving layer's image template
// pool: construct once, CowCheckpoint once, clone per request.
func (cp *Checkpoint) NewImage() (*Image, error) {
	if cp == nil {
		return nil, fmt.Errorf("mem: new image: nil checkpoint")
	}
	m := &Memory{segs: make([]*Segment, 0, len(cp.segs))}
	img := &Image{Mem: m}
	for _, st := range cp.segs {
		seg := &Segment{
			Kind: st.kind, Base: st.base, Perm: st.perm,
			size:  st.size,
			pages: make([]*page, len(st.pages)),
			dirty: make([]uint64, (len(st.pages)+63)/64),
		}
		for j, p := range st.pages {
			seg.pages[j] = p.get()
		}
		m.segs = append(m.segs, seg)
		out := img.slotFor(st.kind)
		if out != nil && *out == nil {
			*out = seg
		}
	}
	sort.Slice(m.segs, func(i, j int) bool { return m.segs[i].Base < m.segs[j].Base })
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

// Checkpoint captures the image's full address space by deep copy.
func (img *Image) Checkpoint() *Checkpoint { return img.Mem.Checkpoint() }

// CowCheckpoint captures the image's full address space by page sharing.
func (img *Image) CowCheckpoint() *Checkpoint { return img.Mem.CowCheckpoint() }

// Restore rolls the image's address space back to cp.
func (img *Image) Restore(cp *Checkpoint) error { return img.Mem.Restore(cp) }
