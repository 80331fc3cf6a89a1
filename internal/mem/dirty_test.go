package mem

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// The dirty tracker's contract is page-granular over-approximation:
// every mutating path marks exactly the pages its byte range covers,
// relative to the last Reset. These tests pin the edge cases — writes
// straddling page boundaries, zero-length writes, Poke vs Write parity,
// whole-segment Memset, restore-after-restore, and checkpoint layout
// mismatch errors.

// dirtyFixture maps one 3-page data segment (last page partial) and one
// single-page heap segment, dirty bits cleared.
func dirtyFixture(t *testing.T) (*Memory, DirtyTracker) {
	t.Helper()
	m := &Memory{}
	if _, err := m.Map(SegData, 0x1000, 2*PageSize+100, PermRW); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Map(SegHeap, 0x100000, 512, PermRW); err != nil {
		t.Fatal(err)
	}
	d := m.Dirty()
	d.Reset()
	return m, d
}

func TestDirtyTrackerWritePaths(t *testing.T) {
	tests := []struct {
		name      string
		mutate    func(t *testing.T, m *Memory)
		wantData  []int // dirty page indices of the data segment
		wantHeap  []int
		wantBytes uint64 // DirtyBytes over both segments
	}{
		{
			name:   "no writes",
			mutate: func(t *testing.T, m *Memory) {},
		},
		{
			name: "single byte marks one page",
			mutate: func(t *testing.T, m *Memory) {
				if err := m.Write(0x1000, []byte{1}); err != nil {
					t.Fatal(err)
				}
			},
			wantData:  []int{0},
			wantBytes: PageSize,
		},
		{
			name: "write straddling a page boundary marks both pages",
			mutate: func(t *testing.T, m *Memory) {
				if err := m.Write(Addr(0x1000+PageSize-1), []byte{1, 2}); err != nil {
					t.Fatal(err)
				}
			},
			wantData:  []int{0, 1},
			wantBytes: 2 * PageSize,
		},
		{
			name: "write spanning three pages",
			mutate: func(t *testing.T, m *Memory) {
				b := make([]byte, PageSize+2)
				if err := m.Write(Addr(0x1000+PageSize-1), b); err != nil {
					t.Fatal(err)
				}
			},
			wantData:  []int{0, 1, 2},
			wantBytes: 2*PageSize + 100, // page 2 is the 100-byte tail
		},
		{
			name: "zero-length write marks nothing",
			mutate: func(t *testing.T, m *Memory) {
				if err := m.Write(0x1000, nil); err != nil {
					t.Fatal(err)
				}
				if err := m.Write(Addr(0x1000+PageSize), []byte{}); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "zero-length memset marks nothing",
			mutate: func(t *testing.T, m *Memory) {
				if err := m.Memset(0x1000, 0xFF, 0); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "failed write marks nothing",
			mutate: func(t *testing.T, m *Memory) {
				if err := m.Write(Addr(0x1000+2*PageSize+99), []byte{1, 2}); err == nil {
					t.Fatal("overrunning write must fault")
				}
			},
		},
		{
			name: "poke marks like write",
			mutate: func(t *testing.T, m *Memory) {
				if err := m.Poke(Addr(0x1000+PageSize-1), []byte{1, 2}); err != nil {
					t.Fatal(err)
				}
			},
			wantData:  []int{0, 1},
			wantBytes: 2 * PageSize,
		},
		{
			name: "poke ignores write perm but still marks",
			mutate: func(t *testing.T, m *Memory) {
				if err := m.Protect(SegData, PermRead); err != nil {
					t.Fatal(err)
				}
				if err := m.Poke(0x1000, []byte{7}); err != nil {
					t.Fatal(err)
				}
			},
			wantData:  []int{0},
			wantBytes: PageSize,
		},
		{
			name: "memset spanning the whole segment marks every page",
			mutate: func(t *testing.T, m *Memory) {
				if err := m.Memset(0x1000, 0xAB, 2*PageSize+100); err != nil {
					t.Fatal(err)
				}
			},
			wantData:  []int{0, 1, 2},
			wantBytes: 2*PageSize + 100,
		},
		{
			name: "strncpy pads into the second page",
			mutate: func(t *testing.T, m *Memory) {
				// 8 source bytes but n = PageSize+8: the NUL padding is
				// writes too, so both pages dirty.
				if err := m.StrNCpy(0x1000, "overflow", PageSize+8); err != nil {
					t.Fatal(err)
				}
			},
			wantData:  []int{0, 1},
			wantBytes: 2 * PageSize,
		},
		{
			name: "writes to both segments tracked per segment",
			mutate: func(t *testing.T, m *Memory) {
				if err := m.Write(Addr(0x1000+2*PageSize), []byte{1}); err != nil {
					t.Fatal(err)
				}
				if err := m.Write(0x100000, []byte{2}); err != nil {
					t.Fatal(err)
				}
			},
			wantData:  []int{2},
			wantHeap:  []int{0},
			wantBytes: 100 + 512, // both are partial tail pages
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			m, d := dirtyFixture(t)
			tc.mutate(t, m)
			if got := d.DirtyPages(SegData); !reflect.DeepEqual(got, tc.wantData) {
				t.Errorf("data dirty pages = %v, want %v", got, tc.wantData)
			}
			if got := d.DirtyPages(SegHeap); !reflect.DeepEqual(got, tc.wantHeap) {
				t.Errorf("heap dirty pages = %v, want %v", got, tc.wantHeap)
			}
			if got := d.DirtyPageCount(); got != len(tc.wantData)+len(tc.wantHeap) {
				t.Errorf("DirtyPageCount = %d, want %d", got, len(tc.wantData)+len(tc.wantHeap))
			}
			if got := d.DirtyBytes(); got != tc.wantBytes {
				t.Errorf("DirtyBytes = %d, want %d", got, tc.wantBytes)
			}
			if got := d.SegmentDirtyCount(SegData); got != len(tc.wantData) {
				t.Errorf("SegmentDirtyCount(data) = %d, want %d", got, len(tc.wantData))
			}
			// Reset always returns to a clean slate.
			d.Reset()
			if got := d.DirtyPageCount(); got != 0 {
				t.Errorf("DirtyPageCount after Reset = %d, want 0", got)
			}
		})
	}
}

func TestDirtyTrackerCounts(t *testing.T) {
	m, d := dirtyFixture(t)
	if got, want := d.PageCount(), 3+1; got != want {
		t.Fatalf("PageCount = %d, want %d", got, want)
	}
	if got := d.PageSize(); got != PageSize {
		t.Fatalf("PageSize = %d, want %d", got, PageSize)
	}
	if got := d.DirtyPages(SegStack); got != nil {
		t.Fatalf("DirtyPages(unmapped) = %v, want nil", got)
	}
	if got := d.SegmentDirtyCount(SegStack); got != 0 {
		t.Fatalf("SegmentDirtyCount(unmapped) = %d, want 0", got)
	}
	// Re-dirtying the same page does not double count.
	if err := m.Write(0x1000, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0x1001, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if got := d.DirtyPageCount(); got != 1 {
		t.Fatalf("DirtyPageCount after two same-page writes = %d, want 1", got)
	}
}

func TestDirtyTrackerRestoreMarksSwappedPages(t *testing.T) {
	m, d := dirtyFixture(t)
	cp := m.CowCheckpoint()

	// Dirty one page, reset the tracker, then restore: the restore
	// swaps exactly that page back, so it must be the only dirty page.
	if err := m.Write(Addr(0x1000+PageSize), []byte{9}); err != nil {
		t.Fatal(err)
	}
	d.Reset()
	restored, err := m.RestoreDirty(cp)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("RestoreDirty restored %d pages, want 1", restored)
	}
	if got := d.DirtyPages(SegData); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("dirty pages after restore = %v, want [1]", got)
	}

	// Restore-after-restore: the image already matches the checkpoint,
	// so the second restore swaps nothing and marks nothing.
	d.Reset()
	restored, err = m.RestoreDirty(cp)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 0 {
		t.Fatalf("second RestoreDirty restored %d pages, want 0", restored)
	}
	if got := d.DirtyPageCount(); got != 0 {
		t.Fatalf("dirty pages after idempotent restore = %d, want 0", got)
	}
}

func TestRestoreAfterRestoreBytes(t *testing.T) {
	m, _ := dirtyFixture(t)
	if err := m.Memset(0x1000, 0x11, 300); err != nil {
		t.Fatal(err)
	}
	cp := m.CowCheckpoint()
	want, err := m.Snapshot(0x1000, 2*PageSize+100)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if err := m.Memset(0x1000, byte(0x20+round), 2*PageSize+100); err != nil {
			t.Fatal(err)
		}
		if _, err := m.RestoreDirty(cp); err != nil {
			t.Fatalf("restore round %d: %v", round, err)
		}
		got, err := m.Snapshot(0x1000, 2*PageSize+100)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("round %d: restored bytes diverge from checkpoint", round)
		}
	}
}

func TestCheckpointLayoutMismatchErrors(t *testing.T) {
	build := func(mapSpec ...[3]uint64) *Memory { // kind, base, size
		m := &Memory{}
		for _, s := range mapSpec {
			if _, err := m.Map(SegKind(s[0]), Addr(s[1]), s[2], PermRW); err != nil {
				panic(err)
			}
		}
		return m
	}
	base := [3]uint64{uint64(SegData), 0x1000, 256}
	tests := []struct {
		name    string
		other   *Memory
		wantSub string
	}{
		{"segment count", build(base, [3]uint64{uint64(SegHeap), 0x10000, 64}), "checkpoint has 1 segments"},
		{"kind mismatch", build([3]uint64{uint64(SegBSS), 0x1000, 256}), "segment 0"},
		{"base mismatch", build([3]uint64{uint64(SegData), 0x2000, 256}), "segment 0"},
		{"size mismatch", build([3]uint64{uint64(SegData), 0x1000, 512}), "segment 0"},
	}
	cps := map[string]*Checkpoint{
		"deep": deepCheckpoint(build(base)),
		"cow":  build(base).CowCheckpoint(),
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			for name, c := range cps {
				if _, err := tc.other.RestoreDirty(c); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
					t.Errorf("RestoreDirty(%s) err = %v, want substring %q", name, err, tc.wantSub)
				}
				if _, err := tc.other.DiffDirty(c); err == nil {
					t.Errorf("DiffDirty(%s) must reject layout mismatch", name)
				}
			}
		})
	}
}
