package mem

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func newTestMem(t *testing.T) (*Memory, *Segment) {
	t.Helper()
	m := &Memory{}
	seg, err := m.Map(SegData, 0x1000, 0x1000, PermRW)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	return m, seg
}

func TestMapRejectsOverlap(t *testing.T) {
	m := &Memory{}
	if _, err := m.Map(SegData, 0x1000, 0x1000, PermRW); err != nil {
		t.Fatalf("first map: %v", err)
	}
	tests := []struct {
		name string
		base Addr
		size uint64
	}{
		{"identical", 0x1000, 0x1000},
		{"head overlap", 0x0f00, 0x200},
		{"tail overlap", 0x1f00, 0x200},
		{"contained", 0x1100, 0x100},
		{"containing", 0x0800, 0x4000},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := m.Map(SegBSS, tt.base, tt.size, PermRW); err == nil {
				t.Errorf("Map(%#x, %#x) succeeded, want overlap error", uint64(tt.base), tt.size)
			}
		})
	}
}

func TestMapRejectsZeroSizeAndWrap(t *testing.T) {
	m := &Memory{}
	if _, err := m.Map(SegData, 0x1000, 0, PermRW); err == nil {
		t.Error("zero-size map succeeded")
	}
	if _, err := m.Map(SegData, ^Addr(0)-10, 100, PermRW); err == nil {
		t.Error("wrapping map succeeded")
	}
}

func TestAdjacentSegmentsAllowed(t *testing.T) {
	m := &Memory{}
	if _, err := m.Map(SegData, 0x1000, 0x1000, PermRW); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Map(SegBSS, 0x2000, 0x1000, PermRW); err != nil {
		t.Errorf("adjacent map failed: %v", err)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m, _ := newTestMem(t)
	want := []byte{1, 2, 3, 4, 5}
	if err := m.Write(0x1100, want); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := m.Read(0x1100, 5)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Read = %v, want %v", got, want)
	}
}

func TestUnmappedAccessFaults(t *testing.T) {
	m, _ := newTestMem(t)
	tests := []struct {
		name string
		fn   func() error
	}{
		{"read below", func() error { _, err := m.Read(0x0fff, 1); return err }},
		{"read above", func() error { _, err := m.Read(0x2000, 1); return err }},
		{"read straddle", func() error { _, err := m.Read(0x1ffe, 4); return err }},
		{"write straddle", func() error { return m.Write(0x1fff, []byte{1, 2}) }},
		{"write null", func() error { return m.Write(NullAddr, []byte{1}) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.fn()
			f, ok := IsFault(err)
			if !ok {
				t.Fatalf("err = %v, want *Fault", err)
			}
			if f.Kind != FaultUnmapped {
				t.Errorf("fault kind = %v, want unmapped", f.Kind)
			}
		})
	}
}

func TestPermissionFaults(t *testing.T) {
	m := &Memory{}
	ro, err := m.Map(SegROData, 0x4000, 0x100, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Write(ro.Base, []byte{1}); err == nil {
		t.Error("write to rodata succeeded")
	} else if f, ok := IsFault(err); !ok || f.Kind != FaultPerm {
		t.Errorf("write to rodata: err = %v, want permission fault", err)
	}
	if err := m.CheckRange(ro.Base, 4, PermExec); err == nil {
		t.Error("exec check on rodata succeeded")
	}
	if err := m.CheckRange(ro.Base, 4, PermRead); err != nil {
		t.Errorf("read check on rodata failed: %v", err)
	}
}

func TestPokeIgnoresWritePerm(t *testing.T) {
	m := &Memory{}
	ro, err := m.Map(SegText, 0x4000, 0x100, PermRX)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Poke(ro.Base, []byte{0xcc}); err != nil {
		t.Fatalf("Poke: %v", err)
	}
	got, err := m.Read(ro.Base, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xcc {
		t.Errorf("byte = %#x, want 0xcc", got[0])
	}
}

func TestScalarAccessorsRoundTrip(t *testing.T) {
	m, _ := newTestMem(t)
	a := Addr(0x1200)

	if err := m.WriteU8(a, 0xab); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.ReadU8(a); v != 0xab {
		t.Errorf("u8 = %#x", v)
	}
	if err := m.WriteU16(a, 0xbeef); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.ReadU16(a); v != 0xbeef {
		t.Errorf("u16 = %#x", v)
	}
	if err := m.WriteU32(a, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.ReadU32(a); v != 0xdeadbeef {
		t.Errorf("u32 = %#x", v)
	}
	if err := m.WriteU64(a, 0x0123456789abcdef); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.ReadU64(a); v != 0x0123456789abcdef {
		t.Errorf("u64 = %#x", v)
	}
	if err := m.WriteF64(a, -2.5); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.ReadF64(a); v != -2.5 {
		t.Errorf("f64 = %v", v)
	}
	if err := m.WriteF32(a, 1.5); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.ReadF32(a); v != 1.5 {
		t.Errorf("f32 = %v", v)
	}
}

func TestLittleEndianLayout(t *testing.T) {
	m, _ := newTestMem(t)
	if err := m.WriteU32(0x1300, 0x04030201); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Read(0x1300, 4)
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Errorf("bytes = %v, want little-endian [1 2 3 4]", got)
	}
}

func TestSignedReadSignExtends(t *testing.T) {
	m, _ := newTestMem(t)
	tests := []struct {
		width int
		write int64
		want  int64
	}{
		{1, -1, -1},
		{2, -300, -300},
		{4, -70000, -70000},
		{8, math.MinInt64, math.MinInt64},
		{4, int64(math.MaxInt32), int64(math.MaxInt32)},
	}
	for _, tt := range tests {
		if err := m.WriteInt(0x1400, tt.write, tt.width); err != nil {
			t.Fatal(err)
		}
		got, err := m.ReadInt(0x1400, tt.width)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Errorf("width %d: ReadInt = %d, want %d", tt.width, got, tt.want)
		}
	}
}

func TestUnsupportedWidth(t *testing.T) {
	m, _ := newTestMem(t)
	if _, err := m.ReadUint(0x1400, 3); err == nil {
		t.Error("ReadUint width 3 succeeded")
	}
	if err := m.WriteUint(0x1400, 0, 5); err == nil {
		t.Error("WriteUint width 5 succeeded")
	}
}

func TestQuickUintRoundTrip(t *testing.T) {
	m, _ := newTestMem(t)
	widths := []int{1, 2, 4, 8}
	f := func(v uint64, wi uint8, off uint16) bool {
		w := widths[int(wi)%len(widths)]
		a := Addr(0x1000 + uint64(off)%(0x1000-8))
		if err := m.WriteUint(a, v, w); err != nil {
			return false
		}
		got, err := m.ReadUint(a, w)
		if err != nil {
			return false
		}
		mask := ^uint64(0)
		if w < 8 {
			mask = (1 << (8 * uint(w))) - 1
		}
		return got == v&mask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCStringReadWrite(t *testing.T) {
	m, _ := newTestMem(t)
	if err := m.WriteCString(0x1500, "hello"); err != nil {
		t.Fatal(err)
	}
	s, ok, err := m.ReadCString(0x1500, 16)
	if err != nil || !ok {
		t.Fatalf("ReadCString: %v ok=%v", err, ok)
	}
	if string(s) != "hello" {
		t.Errorf("s = %q", s)
	}
	// Unterminated read returns max bytes with ok=false (over-read shape
	// used by the info-leak experiments).
	if err := m.Write(0x1600, []byte{'a', 'b', 'c'}); err != nil {
		t.Fatal(err)
	}
	s, ok, err = m.ReadCString(0x1600, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ok || string(s) != "abc" {
		t.Errorf("unterminated: s=%q ok=%v, want abc/false", s, ok)
	}
}

func TestStrNCpyPadsWithNUL(t *testing.T) {
	m, _ := newTestMem(t)
	if err := m.Memset(0x1700, 0xff, 8); err != nil {
		t.Fatal(err)
	}
	if err := m.StrNCpy(0x1700, "ab", 6); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Read(0x1700, 8)
	want := []byte{'a', 'b', 0, 0, 0, 0, 0xff, 0xff}
	if !bytes.Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestStrNCpyTruncates(t *testing.T) {
	m, _ := newTestMem(t)
	if err := m.StrNCpy(0x1700, "abcdef", 3); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Read(0x1700, 3)
	if !bytes.Equal(got, []byte("abc")) {
		t.Errorf("got %q", got)
	}
}

func TestMemset(t *testing.T) {
	m, _ := newTestMem(t)
	if err := m.Memset(0x1800, 0xaa, 16); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Read(0x1800, 16)
	for i, b := range got {
		if b != 0xaa {
			t.Fatalf("byte %d = %#x", i, b)
		}
	}
	if err := m.Memset(0x1800, 0, 0); err != nil {
		t.Errorf("zero-length memset: %v", err)
	}
}

func TestFindSegment(t *testing.T) {
	m := &Memory{}
	a, _ := m.Map(SegData, 0x1000, 0x100, PermRW)
	b, _ := m.Map(SegBSS, 0x3000, 0x100, PermRW)
	tests := []struct {
		addr Addr
		want *Segment
	}{
		{0x1000, a}, {0x10ff, a}, {0x1100, nil},
		{0x3000, b}, {0x2fff, nil}, {0x30ff, b}, {0x3100, nil},
	}
	for _, tt := range tests {
		if got := m.FindSegment(tt.addr); got != tt.want {
			t.Errorf("FindSegment(%#x) = %v, want %v", uint64(tt.addr), got, tt.want)
		}
	}
}

func TestGuardRegionBlocksWrites(t *testing.T) {
	m, _ := newTestMem(t)
	if err := m.WriteU32(0x1104, 0x11111111); err != nil {
		t.Fatal(err)
	}
	g := m.Guard("victim red zone", 0x1104, 4)

	// Write outside: fine.
	if err := m.WriteU32(0x1100, 1); err != nil {
		t.Fatalf("write below guard: %v", err)
	}
	if err := m.WriteU32(0x1108, 1); err != nil {
		t.Fatalf("write above guard: %v", err)
	}
	// Write inside or straddling: faults BEFORE modifying memory.
	for _, addr := range []Addr{0x1104, 0x1106, 0x1102} {
		err := m.Write(addr, []byte{9, 9, 9, 9})
		f, ok := IsFault(err)
		if !ok || f.Kind != FaultGuard {
			t.Fatalf("write at %#x: err = %v, want guard fault", uint64(addr), err)
		}
		if f.Guard != "victim red zone" {
			t.Errorf("guard name = %q", f.Guard)
		}
	}
	v, _ := m.ReadU32(0x1104)
	if v != 0x11111111 {
		t.Errorf("guarded bytes modified: %#x", v)
	}
	// Reads are unaffected; Poke (loader) bypasses.
	if _, err := m.Read(0x1104, 4); err != nil {
		t.Errorf("read in guard: %v", err)
	}
	if err := m.Poke(0x1104, []byte{1}); err != nil {
		t.Errorf("poke in guard: %v", err)
	}
	// Unguard restores writability; double-unguard is a no-op.
	m.Unguard(g)
	m.Unguard(g)
	if err := m.WriteU32(0x1104, 2); err != nil {
		t.Errorf("write after unguard: %v", err)
	}
}

func TestGuardFaultMessage(t *testing.T) {
	f := &Fault{Kind: FaultGuard, Addr: 0x1234, Size: 4, Guard: "zone"}
	if !strings.Contains(f.Error(), "red zone") || !strings.Contains(f.Error(), "zone") {
		t.Errorf("message = %q", f.Error())
	}
}

func TestOverlappingGuards(t *testing.T) {
	m, _ := newTestMem(t)
	m.Guard("a", 0x1100, 8)
	m.Guard("b", 0x1104, 8)
	err := m.WriteU8(0x1106, 1)
	f, ok := IsFault(err)
	if !ok || f.Kind != FaultGuard {
		t.Fatalf("err = %v", err)
	}
	if f.Guard != "a" { // first installed reports
		t.Errorf("reporting guard = %q", f.Guard)
	}
}

func TestWriteLogger(t *testing.T) {
	m, _ := newTestMem(t)
	var recs []WriteRecord
	m.SetWriteLogger(func(r WriteRecord) { recs = append(recs, r) })
	if err := m.WriteU16(0x1100, 0x0102); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].Addr != 0x1100 || !bytes.Equal(recs[0].New, []byte{2, 1}) {
		t.Errorf("record = %+v", recs[0])
	}
	m.SetWriteLogger(nil)
	if err := m.WriteU8(0x1100, 0); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Error("logged after disable")
	}
}

func TestSnapshotDiff(t *testing.T) {
	m, _ := newTestMem(t)
	if err := m.Write(0x1100, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot(0x1100, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Two separated changes.
	if err := m.WriteU8(0x1101, 0xaa); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0x1104, []byte{0xbb, 0xcc}); err != nil {
		t.Fatal(err)
	}
	diffs, err := m.Diff(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 2 {
		t.Fatalf("diffs = %d, want 2: %+v", len(diffs), diffs)
	}
	if diffs[0].Addr != 0x1101 || !bytes.Equal(diffs[0].New, []byte{0xaa}) {
		t.Errorf("diff0 = %+v", diffs[0])
	}
	if diffs[1].Addr != 0x1104 || !bytes.Equal(diffs[1].Old, []byte{5, 6}) {
		t.Errorf("diff1 = %+v", diffs[1])
	}
}

func TestDiffNoChanges(t *testing.T) {
	m, _ := newTestMem(t)
	snap, err := m.Snapshot(0x1100, 16)
	if err != nil {
		t.Fatal(err)
	}
	diffs, err := m.Diff(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Errorf("diffs = %+v, want none", diffs)
	}
}

func TestHexdump(t *testing.T) {
	m, _ := newTestMem(t)
	if err := m.Write(0x1100, []byte("Hi\x00\x01")); err != nil {
		t.Fatal(err)
	}
	s, err := m.Hexdump(0x1100, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "48 69 00 01") {
		t.Errorf("hexdump missing bytes:\n%s", s)
	}
	if !strings.Contains(s, "|Hi..") {
		t.Errorf("hexdump missing ascii gutter:\n%s", s)
	}
	if !strings.HasPrefix(s, "00001100") {
		t.Errorf("hexdump missing address column:\n%s", s)
	}
}

func TestProcessImageLayout(t *testing.T) {
	img, err := NewProcessImage(ImageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if img.Text.Perm != PermRX {
		t.Errorf("text perm = %s", img.Text.Perm)
	}
	if img.Stack.Perm != PermRW {
		t.Errorf("stack perm = %s, want rw- (NX default)", img.Stack.Perm)
	}
	if img.Stack.End() != StackTop {
		t.Errorf("stack end = %#x, want %#x", uint64(img.Stack.End()), uint64(StackTop))
	}
	// Segments are strictly ordered text < rodata < data < bss < heap < stack.
	segs := img.Mem.Segments()
	if len(segs) != 6 {
		t.Fatalf("segments = %d", len(segs))
	}
	for i := 1; i < len(segs); i++ {
		if segs[i-1].End() > segs[i].Base {
			t.Errorf("segment %d overlaps %d", i-1, i)
		}
	}
	// Null page is unmapped.
	if _, err := img.Mem.Read(NullAddr, 1); err == nil {
		t.Error("null read succeeded")
	}
}

func TestProcessImageExecStack(t *testing.T) {
	img, err := NewProcessImage(ImageConfig{ExecStack: true})
	if err != nil {
		t.Fatal(err)
	}
	if img.Stack.Perm != PermRWX {
		t.Errorf("stack perm = %s, want rwx", img.Stack.Perm)
	}
}

func TestSegmentLookupByKind(t *testing.T) {
	img, err := NewProcessImage(ImageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []SegKind{SegText, SegROData, SegData, SegBSS, SegHeap, SegStack} {
		if img.Mem.Segment(k) == nil {
			t.Errorf("Segment(%v) = nil", k)
		}
	}
}

func TestFaultErrorMessages(t *testing.T) {
	f := &Fault{Kind: FaultUnmapped, Addr: 0xdead, Size: 4}
	if !strings.Contains(f.Error(), "segmentation fault") {
		t.Errorf("unmapped message = %q", f.Error())
	}
	p := &Fault{Kind: FaultPerm, Addr: 0x10, Size: 1, Want: PermExec, Have: PermRW}
	if !strings.Contains(p.Error(), "permission fault") {
		t.Errorf("perm message = %q", p.Error())
	}
}

func TestIsFaultUnwraps(t *testing.T) {
	base := &Fault{Kind: FaultUnmapped, Addr: 1, Size: 1}
	wrapped := errWrap{base}
	if f, ok := IsFault(wrapped); !ok || f != base {
		t.Error("IsFault failed to unwrap")
	}
	if _, ok := IsFault(errors.New("plain")); ok {
		t.Error("IsFault matched plain error")
	}
	if _, ok := IsFault(nil); ok {
		t.Error("IsFault matched nil")
	}
}

type errWrap struct{ e error }

func (w errWrap) Error() string { return "wrap: " + w.e.Error() }
func (w errWrap) Unwrap() error { return w.e }

func TestPermString(t *testing.T) {
	tests := []struct {
		p    Perm
		want string
	}{
		{0, "---"}, {PermRead, "r--"}, {PermRW, "rw-"}, {PermRWX, "rwx"}, {PermRX, "r-x"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.p, got, tt.want)
		}
	}
}

func TestAddrArithmetic(t *testing.T) {
	a := Addr(0x1000)
	if a.Add(16) != 0x1010 {
		t.Error("Add positive")
	}
	if a.Add(-16) != 0xff0 {
		t.Error("Add negative")
	}
	if Addr(0x1010).Diff(a) != 16 {
		t.Error("Diff")
	}
	if a.Diff(0x1010) != -16 {
		t.Error("Diff negative")
	}
}

func TestProtectChangesPermissions(t *testing.T) {
	img, err := NewProcessImage(ImageConfig{ExecStack: true})
	if err != nil {
		t.Fatal(err)
	}
	if img.Stack.Perm&PermExec == 0 {
		t.Fatal("stack not executable before protect")
	}
	if err := img.Mem.Protect(SegStack, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := img.Mem.CheckRange(img.Stack.Base, 4, PermExec); err == nil {
		t.Error("exec check passed after protect")
	}
	if err := img.Mem.Protect(SegKind(99), PermRW); err == nil {
		t.Error("protect of unmapped kind succeeded")
	}
}
