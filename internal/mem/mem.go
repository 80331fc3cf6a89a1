// Package mem implements the byte-addressable virtual address space that
// underlies the simulated process. It is the substrate on which every
// attack in the paper is reproduced: an overflow is nothing more than a
// sequence of byte writes that walk past the end of one arena into the
// bytes of another, and this package makes those writes observable.
//
// The address space is a set of non-overlapping mapped segments (text,
// rodata, data, bss, heap, stack), each with R/W/X permissions. Accesses
// outside mapped segments or against permissions raise a *Fault, mirroring
// a SIGSEGV in the paper's Ubuntu testbed. Guard regions fault writes
// into red zones, and observer seams (SetAccessObserver, SetWriteLogger)
// let instrumentation see every write without altering the attack path.
package mem

import (
	"bytes"
	"fmt"
	"math"
	"sort"
)

// Addr is a virtual address in the simulated process. The data model
// (ILP32 vs LP64) constrains pointer width at the layout level; mem itself
// is width-agnostic.
type Addr uint64

// NullAddr is the null pointer. Segment layouts never map page zero so a
// null dereference always faults, as on the paper's testbed.
const NullAddr Addr = 0

// Add returns a+off. It is a convenience for pointer arithmetic in
// scenarios and allocators.
func (a Addr) Add(off int64) Addr { return Addr(int64(a) + off) }

// Diff returns a-b as a signed offset.
func (a Addr) Diff(b Addr) int64 { return int64(a) - int64(b) }

// Perm is a bitmask of segment permissions.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// Common permission combinations.
const (
	PermRW  = PermRead | PermWrite
	PermRX  = PermRead | PermExec
	PermRWX = PermRead | PermWrite | PermExec
)

// String returns the permissions in ls -l style, e.g. "rw-".
func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// SegKind identifies the role of a segment in the simulated process image.
type SegKind int

// Segment kinds, in ascending address order of the default process image.
const (
	SegText SegKind = iota + 1
	SegROData
	SegData
	SegBSS
	SegHeap
	SegStack
)

var segKindNames = map[SegKind]string{
	SegText:   "text",
	SegROData: "rodata",
	SegData:   "data",
	SegBSS:    "bss",
	SegHeap:   "heap",
	SegStack:  "stack",
}

// String returns the conventional ELF-style segment name.
func (k SegKind) String() string {
	if s, ok := segKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("SegKind(%d)", int(k))
}

// Segment is one mapped region of the address space. Its backing store
// is a table of fixed-size pages (see paging.go): pages, and the table
// itself, may be shared with checkpoints or with other segments cloned
// from the same image template. A per-segment owned bitmap marks the
// pages this segment may write in place, and is nil while the table is
// shared; every write path copy-on-writes any other page before
// mutating it. A per-segment dirty bitmap records which pages have been
// written since the last DirtyTracker reset.
type Segment struct {
	Kind SegKind
	Base Addr
	Perm Perm

	size   uint64
	pages  []*page
	owned  []uint64 // owned-page bitmap, one bit per page; nil while pages is shared
	dirty  []uint64 // dirty-page bitmap, one bit per page
	ndirty int      // population count of dirty
}

// Size returns the segment length in bytes.
func (s *Segment) Size() uint64 { return s.size }

// End returns the first address past the segment.
func (s *Segment) End() Addr { return s.Base.Add(int64(s.size)) }

// Contains reports whether addr lies inside the segment.
func (s *Segment) Contains(addr Addr) bool {
	return addr >= s.Base && addr < s.End()
}

// containsRange reports whether [addr, addr+n) lies inside the segment.
func (s *Segment) containsRange(addr Addr, n uint64) bool {
	if n == 0 {
		return s.Contains(addr) || addr == s.End()
	}
	return addr >= s.Base && addr.Add(int64(n)) <= s.End() && addr.Add(int64(n)) > addr
}

// Memory is a simulated flat address space composed of mapped segments.
// The zero value is an empty address space; use Map to add segments or
// NewProcessImage for the canonical process layout.
//
// Memory is not safe for concurrent use; a simulated process is
// single-threaded, as are all of the paper's victim programs.
type Memory struct {
	segs   []*Segment // sorted by Base
	guards []*GuardRegion
	// last is the segment seg resolved most recently: consecutive
	// accesses mostly land in one segment, so seg tries it before the
	// binary search.
	last *Segment
	// writeLog, when non-nil, receives a record for every successful write.
	writeLog func(WriteRecord)
	// hook, when non-nil, observes (and may alter) every checked access.
	hook AccessHook
	// obs, when non-nil, passively observes every attempted checked
	// access before the hook runs (the observability seam).
	obs AccessObserver
	// shadow, when non-nil, validates every checked write against the
	// byte-granular shadow encoding before it lands (the sanitizer
	// seam, see internal/shadow).
	shadow ShadowChecker
	// mut, when non-nil, observes every byte range a store actually
	// mutated — program Writes after every check and hook has passed,
	// and loader Pokes (the recording seam, see internal/compile).
	mut func(addr Addr, n uint64)
}

// WriteRecord describes one completed write, for tracing.
type WriteRecord struct {
	Addr Addr
	Old  []byte
	New  []byte
}

// SetWriteLogger installs fn to observe every successful write. Pass nil to
// disable. Used by the experiment harness to build memory diffs.
func (m *Memory) SetWriteLogger(fn func(WriteRecord)) { m.writeLog = fn }

// SetMutObserver installs fn to observe every byte range a store
// mutates, after it lands. Unlike the AccessObserver (which sees
// *attempted* accesses before any check) and the write logger (which
// sees Writes only), the mutation observer fires exactly when backing
// bytes changed hands: after a Write clears permissions, guards,
// shadow, and hooks — with the hook-replaced length, if any — and
// after every loader Poke. It is the seam the scenario compiler's
// recorder uses to capture a run's precise write set, so dirty-page
// accounting can be reproduced by replaying exactly the recorded
// ranges. Pass nil to disarm; a nil observer costs one pointer check.
func (m *Memory) SetMutObserver(fn func(addr Addr, n uint64)) { m.mut = fn }

// Map adds a segment of n bytes at base with the given permissions.
// It returns an error if the range overlaps an existing segment or wraps.
func (m *Memory) Map(kind SegKind, base Addr, n uint64, perm Perm) (*Segment, error) {
	if n == 0 {
		return nil, fmt.Errorf("mem: map %s at %#x: zero size", kind, uint64(base))
	}
	end := base.Add(int64(n))
	if end <= base {
		return nil, fmt.Errorf("mem: map %s at %#x size %d: address wrap", kind, uint64(base), n)
	}
	for _, s := range m.segs {
		if base < s.End() && s.Base < end {
			return nil, fmt.Errorf("mem: map %s [%#x,%#x) overlaps %s [%#x,%#x)",
				kind, uint64(base), uint64(end), s.Kind, uint64(s.Base), uint64(s.End()))
		}
	}
	pages, owned := newPages(n)
	seg := &Segment{
		Kind: kind, Base: base, Perm: perm,
		size:  n,
		pages: pages,
		owned: owned,
		dirty: make([]uint64, bitmapWords(len(pages))),
	}
	m.segs = append(m.segs, seg)
	sort.Slice(m.segs, func(i, j int) bool { return m.segs[i].Base < m.segs[j].Base })
	return seg, nil
}

// Segments returns the mapped segments in ascending base order. The
// returned slice is a copy; the segments themselves are shared.
func (m *Memory) Segments() []*Segment {
	out := make([]*Segment, len(m.segs))
	copy(out, m.segs)
	return out
}

// Segment returns the segment of the given kind, or nil if not mapped.
// If several segments share a kind the lowest-based one is returned.
func (m *Memory) Segment(kind SegKind) *Segment {
	for _, s := range m.segs {
		if s.Kind == kind {
			return s
		}
	}
	return nil
}

// Protect changes a mapped segment's permissions at runtime — the
// simulated mprotect(2), used to model defenses deployed after process
// start (e.g. marking a stack non-executable).
func (m *Memory) Protect(kind SegKind, perm Perm) error {
	s := m.Segment(kind)
	if s == nil {
		return fmt.Errorf("mem: protect: no %s segment mapped", kind)
	}
	s.Perm = perm
	return nil
}

// FindSegment returns the segment containing addr, or nil.
func (m *Memory) FindSegment(addr Addr) *Segment {
	// Binary search over sorted bases.
	i := sort.Search(len(m.segs), func(i int) bool { return m.segs[i].End() > addr })
	if i < len(m.segs) && m.segs[i].Contains(addr) {
		return m.segs[i]
	}
	return nil
}

// seg returns the segment covering [addr, addr+n) or a fault. The
// cached segment answers only when it contains addr itself, as
// FindSegment requires: containsRange alone admits the empty range at
// a segment's end, which must fault unless another segment starts
// there.
func (m *Memory) seg(addr Addr, n uint64) (*Segment, *Fault) {
	if s := m.last; s != nil && s.Contains(addr) && s.containsRange(addr, n) {
		return s, nil
	}
	s := m.FindSegment(addr)
	if s == nil || !s.containsRange(addr, n) {
		return nil, &Fault{Kind: FaultUnmapped, Addr: addr, Size: n}
	}
	m.last = s
	return s, nil
}

// CheckRange verifies that [addr, addr+n) is mapped with all bits in perm.
// It returns nil on success and a *Fault describing the violation otherwise.
func (m *Memory) CheckRange(addr Addr, n uint64, perm Perm) error {
	s, f := m.seg(addr, n)
	if f != nil {
		return f
	}
	if s.Perm&perm != perm {
		return &Fault{Kind: FaultPerm, Addr: addr, Size: n, Want: perm, Have: s.Perm}
	}
	return nil
}

// Read copies n bytes starting at addr into a fresh slice.
func (m *Memory) Read(addr Addr, n uint64) ([]byte, error) {
	return m.load(addr, n, nil)
}

// load is the one checked read path. It copies the n bytes at addr into
// dst, or into a fresh slice when dst is nil, and returns them (or the
// hook's replacement). The scalar readers pass a stack array as dst, so
// they do not allocate; Read's slice is made only after the mapping and
// permission checks pass. An armed hook sees a copy, so it cannot reach
// the caller's buffer.
func (m *Memory) load(addr Addr, n uint64, dst []byte) ([]byte, error) {
	s, f := m.seg(addr, n)
	if f != nil {
		return nil, f
	}
	if s.Perm&PermRead == 0 {
		return nil, &Fault{Kind: FaultPerm, Addr: addr, Size: n, Want: PermRead, Have: s.Perm}
	}
	if m.obs != nil {
		m.obs(AccessRead, addr, n)
	}
	if dst == nil {
		dst = make([]byte, n)
	}
	s.readRaw(uint64(addr.Diff(s.Base)), dst)
	if m.hook != nil {
		switch d := m.hook(AccessRead, addr, bytes.Clone(dst)); {
		case d.Fault != nil:
			return nil, d.Fault
		case d.Replace != nil:
			return d.Replace, nil
		}
	}
	return dst, nil
}

// Write copies b into memory at addr, honouring permissions, the
// sanitizer, guard regions and the access hook. With a write logger
// installed the old bytes are captured before the write for tracing.
// b is not retained: an armed hook sees a copy, so the scalar writers
// can pass stack arrays.
func (m *Memory) Write(addr Addr, b []byte) error {
	n := uint64(len(b))
	s, f := m.seg(addr, n)
	if f != nil {
		return f
	}
	if s.Perm&PermWrite == 0 {
		return &Fault{Kind: FaultPerm, Addr: addr, Size: n, Want: PermWrite, Have: s.Perm}
	}
	if m.obs != nil {
		m.obs(AccessWrite, addr, n)
	}
	if m.shadow != nil {
		// The sanitizer runs before the guard check so the
		// byte-granular diagnosis wins attribution, and before any
		// byte is stored: a rejected write corrupts nothing.
		if f := m.shadow.CheckWrite(addr, n); f != nil {
			return f
		}
	}
	if f := m.checkGuards(addr, n); f != nil {
		return f
	}
	if m.hook != nil {
		switch d := m.hook(AccessWrite, addr, bytes.Clone(b)); {
		case d.Fault != nil:
			return d.Fault
		case d.Drop:
			return nil
		case d.Replace != nil:
			b = d.Replace
			n = uint64(len(b))
			if n == 0 {
				return nil
			}
		}
	}
	off := uint64(addr.Diff(s.Base))
	var old []byte
	if m.writeLog != nil {
		old = make([]byte, n)
		s.readRaw(off, old)
	}
	s.writeRaw(off, b)
	if m.mut != nil && n > 0 {
		m.mut(addr, n)
	}
	if m.writeLog != nil {
		nb := make([]byte, n)
		copy(nb, b)
		m.writeLog(WriteRecord{Addr: addr, Old: old, New: nb})
	}
	return nil
}

// Poke writes bytes ignoring write permission (but still requiring the
// range to be mapped). It is used by the loader to populate text/rodata and
// never by simulated program code.
func (m *Memory) Poke(addr Addr, b []byte) error {
	s, f := m.seg(addr, uint64(len(b)))
	if f != nil {
		return f
	}
	s.writeRaw(uint64(addr.Diff(s.Base)), b)
	if m.mut != nil && len(b) > 0 {
		m.mut(addr, uint64(len(b)))
	}
	return nil
}

// Memset fills [addr, addr+n) with v. It is the simulated counterpart of
// the paper's §5.1 sanitization primitive.
func (m *Memory) Memset(addr Addr, v byte, n uint64) error {
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	if v != 0 {
		for i := range b {
			b[i] = v
		}
	}
	return m.Write(addr, b)
}

// --- Fixed-width scalar accessors (little-endian, as on the paper's i386
// testbed). -------------------------------------------------------------

// loadScalar is the scalar readers' load: it returns the len(dst) bytes
// at addr. With no observer and no hook armed, a readable range that
// lies in one page is returned as a view of that page, with nothing
// copied. Every other access, and every fault, goes through load into
// dst, so values, faults and what an armed observer or hook sees are
// exactly load's.
func (m *Memory) loadScalar(addr Addr, dst []byte) ([]byte, error) {
	n := uint64(len(dst))
	if m.obs == nil && m.hook == nil {
		if s, f := m.seg(addr, n); f == nil && s.Perm&PermRead != 0 {
			off := uint64(addr.Diff(s.Base))
			if po := off & (PageSize - 1); po+n <= PageSize {
				return s.pages[off>>PageShift][po : po+n], nil
			}
		}
	}
	return m.load(addr, n, dst)
}

// ReadU8 reads one byte.
func (m *Memory) ReadU8(addr Addr) (uint8, error) {
	var buf [1]byte
	b, err := m.loadScalar(addr, buf[:])
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// WriteU8 writes one byte.
func (m *Memory) WriteU8(addr Addr, v uint8) error { return m.Write(addr, []byte{v}) }

// ReadU16 reads a little-endian uint16.
func (m *Memory) ReadU16(addr Addr) (uint16, error) {
	var buf [2]byte
	b, err := m.loadScalar(addr, buf[:])
	if err != nil {
		return 0, err
	}
	return uint16(b[0]) | uint16(b[1])<<8, nil
}

// WriteU16 writes a little-endian uint16.
func (m *Memory) WriteU16(addr Addr, v uint16) error {
	return m.Write(addr, []byte{byte(v), byte(v >> 8)})
}

// ReadU32 reads a little-endian uint32.
func (m *Memory) ReadU32(addr Addr) (uint32, error) {
	var buf [4]byte
	b, err := m.loadScalar(addr, buf[:])
	if err != nil {
		return 0, err
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

// WriteU32 writes a little-endian uint32.
func (m *Memory) WriteU32(addr Addr, v uint32) error {
	return m.Write(addr, []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
}

// ReadU64 reads a little-endian uint64.
func (m *Memory) ReadU64(addr Addr) (uint64, error) {
	var buf [8]byte
	b, err := m.loadScalar(addr, buf[:])
	if err != nil {
		return 0, err
	}
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v, nil
}

// WriteU64 writes a little-endian uint64.
func (m *Memory) WriteU64(addr Addr, v uint64) error {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return m.Write(addr, b[:])
}

// ReadUint reads an unsigned integer of the given byte width (1, 2, 4, 8).
func (m *Memory) ReadUint(addr Addr, width int) (uint64, error) {
	switch width {
	case 1:
		v, err := m.ReadU8(addr)
		return uint64(v), err
	case 2:
		v, err := m.ReadU16(addr)
		return uint64(v), err
	case 4:
		v, err := m.ReadU32(addr)
		return uint64(v), err
	case 8:
		return m.ReadU64(addr)
	default:
		return 0, fmt.Errorf("mem: read uint width %d at %#x: unsupported width", width, uint64(addr))
	}
}

// WriteUint writes an unsigned integer of the given byte width (1, 2, 4, 8).
// Values are truncated to the width, as a store instruction would.
func (m *Memory) WriteUint(addr Addr, v uint64, width int) error {
	switch width {
	case 1:
		return m.WriteU8(addr, uint8(v))
	case 2:
		return m.WriteU16(addr, uint16(v))
	case 4:
		return m.WriteU32(addr, uint32(v))
	case 8:
		return m.WriteU64(addr, v)
	default:
		return fmt.Errorf("mem: write uint width %d at %#x: unsupported width", width, uint64(addr))
	}
}

// ReadInt reads a signed integer of the given byte width, sign-extended.
func (m *Memory) ReadInt(addr Addr, width int) (int64, error) {
	u, err := m.ReadUint(addr, width)
	if err != nil {
		return 0, err
	}
	shift := uint(64 - 8*width)
	return int64(u<<shift) >> shift, nil
}

// WriteInt writes a signed integer of the given byte width.
func (m *Memory) WriteInt(addr Addr, v int64, width int) error {
	return m.WriteUint(addr, uint64(v), width)
}

// ReadF64 reads a little-endian IEEE-754 double.
func (m *Memory) ReadF64(addr Addr) (float64, error) {
	u, err := m.ReadU64(addr)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(u), nil
}

// WriteF64 writes a little-endian IEEE-754 double.
func (m *Memory) WriteF64(addr Addr, v float64) error {
	return m.WriteU64(addr, math.Float64bits(v))
}

// ReadF32 reads a little-endian IEEE-754 float.
func (m *Memory) ReadF32(addr Addr) (float32, error) {
	u, err := m.ReadU32(addr)
	if err != nil {
		return 0, err
	}
	return math.Float32frombits(u), nil
}

// WriteF32 writes a little-endian IEEE-754 float.
func (m *Memory) WriteF32(addr Addr, v float32) error {
	return m.WriteU32(addr, math.Float32bits(v))
}

// ReadCString reads a NUL-terminated byte string starting at addr, up to
// max bytes (not counting the terminator). If no NUL is found within max
// bytes the first max bytes are returned with ok=false — exactly the
// over-read behaviour the §4.3 information-leak experiments rely on.
func (m *Memory) ReadCString(addr Addr, max uint64) (s []byte, ok bool, err error) {
	for i := uint64(0); i < max; i++ {
		b, err := m.ReadU8(addr.Add(int64(i)))
		if err != nil {
			return nil, false, err
		}
		if b == 0 {
			return s, true, nil
		}
		s = append(s, b)
	}
	return s, false, nil
}

// WriteCString writes s followed by a NUL terminator.
func (m *Memory) WriteCString(addr Addr, s string) error {
	b := make([]byte, len(s)+1)
	copy(b, s)
	return m.Write(addr, b)
}

// StrNCpy emulates C strncpy(dst, src, n): copies at most n bytes from the
// Go string src, NUL-padding to exactly n bytes if src is shorter. Like the
// real function it performs no bounds checking against dst's arena — the
// bounds discipline (or lack of it) is the caller's, which is the crux of
// the §4 two-step array attacks.
func (m *Memory) StrNCpy(dst Addr, src string, n uint64) error {
	b := make([]byte, n)
	copy(b, src)
	return m.Write(dst, b)
}
