package heap

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func newTestHeap(t *testing.T, size uint64) (*Allocator, *mem.Memory) {
	t.Helper()
	m := &mem.Memory{}
	if _, err := m.Map(mem.SegHeap, 0x10000, size, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	a, err := New(m, 0x10000, size)
	if err != nil {
		t.Fatal(err)
	}
	return a, m
}

func TestAllocAlignmentAndBounds(t *testing.T) {
	a, _ := newTestHeap(t, 4096)
	p1, err := a.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(p1)%8 != 0 {
		t.Errorf("payload %#x not 8-aligned", uint64(p1))
	}
	p2, err := a.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	if p2 <= p1 {
		t.Errorf("second alloc %#x not after first %#x", uint64(p2), uint64(p1))
	}
	// 10 rounds to 16, plus 8 header.
	if p2.Diff(p1) != 24 {
		t.Errorf("gap = %d, want 24", p2.Diff(p1))
	}
}

func TestSizeOf(t *testing.T) {
	a, _ := newTestHeap(t, 4096)
	p, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	n, err := a.SizeOf(p)
	if err != nil {
		t.Fatal(err)
	}
	if n != 104 { // rounded to 8
		t.Errorf("SizeOf = %d, want 104", n)
	}
	if _, err := a.SizeOf(p.Add(8)); err == nil {
		t.Error("SizeOf of interior pointer succeeded")
	}
}

func TestFreeAndReuse(t *testing.T) {
	a, _ := newTestHeap(t, 4096)
	p1, err := a.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(64); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	p3, err := a.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Errorf("first-fit did not reuse freed block: %#x vs %#x", uint64(p3), uint64(p1))
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	a, _ := newTestHeap(t, 4096)
	p, err := a.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); err == nil {
		t.Error("double free not detected")
	}
}

func TestFreeInvalidPointer(t *testing.T) {
	a, _ := newTestHeap(t, 4096)
	if err := a.Free(0x50); err == nil {
		t.Error("free outside arena succeeded")
	}
	p, err := a.Alloc(32)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p.Add(8)); err == nil {
		t.Error("free of interior pointer succeeded")
	}
}

func TestOOM(t *testing.T) {
	a, _ := newTestHeap(t, 128)
	if _, err := a.Alloc(1024); err == nil {
		t.Fatal("oversized alloc succeeded")
	} else {
		var oom *OOMError
		if !errors.As(err, &oom) {
			t.Errorf("err = %T, want *OOMError", err)
		}
	}
	// Exhaust with small blocks, then fail.
	for {
		if _, err := a.Alloc(8); err != nil {
			break
		}
	}
	if _, err := a.Alloc(8); err == nil {
		t.Error("alloc after exhaustion succeeded")
	}
}

func TestCoalescingRestoresArena(t *testing.T) {
	a, _ := newTestHeap(t, 1024)
	var ps []mem.Addr
	for i := 0; i < 4; i++ {
		p, err := a.Alloc(100)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	// Free out of order; coalescing must merge everything back.
	for _, i := range []int{2, 0, 3, 1} {
		if err := a.Free(ps[i]); err != nil {
			t.Fatal(err)
		}
	}
	// A full-arena allocation must now succeed (1024 - 8 header).
	if _, err := a.Alloc(1024 - 8); err != nil {
		t.Errorf("arena not fully coalesced: %v", err)
	}
}

func TestStatsLedger(t *testing.T) {
	a, _ := newTestHeap(t, 4096)
	p1, _ := a.Alloc(16)
	p2, _ := a.Alloc(24)
	s := a.Stats()
	if s.Allocs != 2 || s.LiveBlocks != 2 || s.InUse != 40 {
		t.Errorf("after allocs: %+v", s)
	}
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	s = a.Stats()
	if s.Frees != 1 || s.LiveBlocks != 1 || s.InUse != 24 || s.BytesFreed != 16 {
		t.Errorf("after free: %+v", s)
	}
	_ = p2
}

func TestLeakAccountingMatchesPaperArithmetic(t *testing.T) {
	// §4.5: allocate GradStudent-sized blocks, "free" only Student-sized
	// reuse; leak per iteration = sizeGrad - sizeStudent. Here we model it
	// as the ledger difference after alloc-without-free iterations.
	a, _ := newTestHeap(t, 64<<10)
	const sizeGrad, sizeStudent = 32, 16
	iters := 10
	for i := 0; i < iters; i++ {
		p, err := a.Alloc(sizeGrad)
		if err != nil {
			t.Fatal(err)
		}
		// The program frees only a Student-worth by reallocating in place;
		// the simplest ledger model: nothing freed, Student bytes reused.
		_ = p
	}
	if got := a.Stats().InUse; got != uint64(iters*sizeGrad) {
		t.Errorf("InUse = %d, want %d", got, iters*sizeGrad)
	}
}

func TestLiveBlocksAndTags(t *testing.T) {
	a, _ := newTestHeap(t, 4096)
	p1, _ := a.AllocTagged(16, "name")
	if _, err := a.Alloc(16); err != nil {
		t.Fatal(err)
	}
	blocks, err := a.LiveBlocks()
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 {
		t.Fatalf("live = %d", len(blocks))
	}
	if blocks[0].Payload != p1 || blocks[0].Tag != "name" {
		t.Errorf("block0 = %+v", blocks[0])
	}
	if blocks[1].Tag != "" {
		t.Errorf("block1 tag = %q", blocks[1].Tag)
	}
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	blocks, err = a.LiveBlocks()
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 {
		t.Errorf("live after free = %d", len(blocks))
	}
}

func TestBlockAt(t *testing.T) {
	a, _ := newTestHeap(t, 4096)
	p, _ := a.Alloc(32)
	b, ok := a.BlockAt(p.Add(10))
	if !ok || b.Payload != p || b.Size != 32 {
		t.Errorf("BlockAt interior = %+v ok=%v", b, ok)
	}
	if _, ok := a.BlockAt(p.Add(32)); ok {
		t.Error("BlockAt past end matched")
	}
	if _, ok := a.BlockAt(0x100); ok {
		t.Error("BlockAt outside arena matched")
	}
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.BlockAt(p); ok {
		t.Error("BlockAt matched freed block")
	}
}

func TestOverflowCorruptsNextHeaderAndIsDetected(t *testing.T) {
	// The §3.5.1 shape at allocator level: writing past block p1's payload
	// tramples p2's header; integrity checking notices.
	a, m := newTestHeap(t, 4096)
	p1, _ := a.Alloc(16)
	if _, err := a.Alloc(16); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatalf("pristine heap reported corrupt: %v", err)
	}
	// Overflow p1 by 8 bytes: exactly the next header.
	if err := m.Write(p1.Add(16), []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	err := a.CheckIntegrity()
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Errorf("CheckIntegrity = %v, want *CorruptError", err)
	}
}

func TestRedZoneDetectsOverflowOnFree(t *testing.T) {
	a, m := newTestHeap(t, 4096)
	a.EnableRedZones()
	p1, err := a.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(16); err != nil {
		t.Fatal(err)
	}
	// Clean free passes.
	if err := a.CheckRedZones(); err != nil {
		t.Fatalf("pristine zones reported bad: %v", err)
	}
	// One byte past the requested size hits the guard.
	if err := m.WriteU8(p1.Add(16), 0x58); err != nil {
		t.Fatal(err)
	}
	var rz *RedZoneError
	if err := a.CheckRedZones(); !errors.As(err, &rz) {
		t.Errorf("CheckRedZones = %v, want *RedZoneError", err)
	}
	if err := a.Free(p1); !errors.As(err, &rz) {
		t.Errorf("Free = %v, want *RedZoneError", err)
	}
	if rz.Payload != p1 {
		t.Errorf("payload = %#x, want %#x", uint64(rz.Payload), uint64(p1))
	}
}

func TestRedZoneCleanLifecycle(t *testing.T) {
	a, m := newTestHeap(t, 4096)
	a.EnableRedZones()
	p, err := a.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	// Writing exactly the requested bytes is fine.
	if err := m.Memset(p, 0xaa, 10); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); err != nil {
		t.Fatalf("clean free: %v", err)
	}
	// Zone bookkeeping is released with the block.
	if err := a.CheckRedZones(); err != nil {
		t.Errorf("zones after free: %v", err)
	}
}

func TestRedZoneOnlyAffectsNewAllocations(t *testing.T) {
	a, m := newTestHeap(t, 4096)
	old, err := a.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	a.EnableRedZones()
	// Pre-hardening blocks carry no zone: trampling past them is not
	// detected through the zone machinery.
	if err := m.WriteU8(old.Add(16), 0x58); err == nil {
		if err := a.CheckRedZones(); err != nil {
			t.Errorf("zone reported for unguarded block: %v", err)
		}
	}
}

func TestCoalesceToleratesCorruptRegion(t *testing.T) {
	// An unhardened free must not fail just because a *later* header was
	// trampled — strict validation is CheckIntegrity's job.
	a, m := newTestHeap(t, 4096)
	p1, _ := a.Alloc(16)
	p2, _ := a.Alloc(16)
	if _, err := a.Alloc(16); err != nil {
		t.Fatal(err)
	}
	// Trample p2's header (as the §3.5.1 overflow does).
	if err := m.Write(p2.Add(-8), []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p1); err != nil {
		t.Errorf("free with downstream corruption failed: %v", err)
	}
	if err := a.CheckIntegrity(); err == nil {
		t.Error("strict integrity check missed the corruption")
	}
}

func TestNewErrors(t *testing.T) {
	m := &mem.Memory{}
	if _, err := New(m, 0x1000, 64); err == nil {
		t.Error("unmapped arena accepted")
	}
	if _, err := m.Map(mem.SegHeap, 0x1000, 4096, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if _, err := New(m, 0x1000, 8); err == nil {
		t.Error("tiny arena accepted")
	}
	if _, err := New(nil, 0x1000, 4096); err == nil {
		t.Error("nil memory accepted")
	}
}

func TestNewOnImage(t *testing.T) {
	img, err := mem.NewProcessImage(mem.ImageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewOnImage(img)
	if err != nil {
		t.Fatal(err)
	}
	p, err := a.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if !img.Heap.Contains(p) {
		t.Errorf("allocation %#x outside heap segment", uint64(p))
	}
}

// Property: random alloc/free sequences never hand out overlapping live
// blocks, never corrupt the arena, and keep the ledger consistent.
func TestQuickAllocFreeInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		a, _ := newTestHeapQuick(8192)
		if a == nil {
			return false
		}
		live := make(map[mem.Addr]uint64)
		for _, op := range ops {
			if op%3 != 0 || len(live) == 0 {
				n := uint64(op%200) + 1
				p, err := a.Alloc(n)
				if err != nil {
					continue // OOM is acceptable
				}
				// No overlap with any live block.
				for q, qs := range live {
					if p < q.Add(int64(qs)) && q < p.Add(int64(n)) {
						return false
					}
				}
				// A block that couldn't be split may be larger than the
				// rounded request; account the real payload size.
				got, err := a.SizeOf(p)
				if err != nil {
					return false
				}
				live[p] = got
			} else {
				for p := range live {
					if err := a.Free(p); err != nil {
						return false
					}
					delete(live, p)
					break
				}
			}
		}
		if err := a.CheckIntegrity(); err != nil {
			return false
		}
		var inUse uint64
		for _, s := range live {
			inUse += s
		}
		return a.Stats().InUse == inUse && a.Stats().LiveBlocks == uint64(len(live))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func newTestHeapQuick(size uint64) (*Allocator, *mem.Memory) {
	m := &mem.Memory{}
	if _, err := m.Map(mem.SegHeap, 0x10000, size, mem.PermRW); err != nil {
		return nil, nil
	}
	a, err := New(m, 0x10000, size)
	if err != nil {
		return nil, nil
	}
	return a, m
}

// TestAllocWalkDoesNotAllocate: the first-fit walk past 200 live blocks
// reads every header through mem's scalar path and allocates nothing on
// the Go heap.
func TestAllocWalkDoesNotAllocate(t *testing.T) {
	const live = 200
	a, _ := newTestHeap(t, 64<<10)
	for i := 0; i < live; i++ {
		if _, err := a.Alloc(16); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	if allocs := testing.AllocsPerRun(100, func() { _, err = a.Alloc(16) }); allocs != 0 {
		t.Errorf("Alloc past %d live blocks: %v allocations per call, want 0", live, allocs)
	}
	if err != nil {
		t.Fatal(err)
	}
}
