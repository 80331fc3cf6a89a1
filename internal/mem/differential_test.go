package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/shrink"
)

// This file is the differential harness for the copy-on-write
// checkpoint implementation: two "twin" address spaces with an
// identical random segment layout execute an identical random sequence
// of mutating operations. One twin checkpoints with deepCheckpoint, the
// reference copy below, the other with CowCheckpoint. After every step
// the twins must agree byte-for-byte — segment contents, diff output
// against every live checkpoint, restore results, and errors. Any
// divergence is shrunk to a minimal op sequence before reporting.

// deepCheckpoint is the reference model of a checkpoint: it captures
// every mapped segment by copying each page up front, so nothing is
// shared with the memory afterwards and the memory keeps owning its
// pages. Restoring one with RestoreDirty swaps every page back, since
// no page is shared by identity.
func deepCheckpoint(m *Memory) *Checkpoint {
	cp := &Checkpoint{segs: make([]segState, 0, len(m.segs))}
	for _, s := range m.segs {
		ps := make([]*page, len(s.pages))
		for i, p := range s.pages {
			np := *p
			ps[i] = &np
		}
		cp.segs = append(cp.segs, segState{kind: s.Kind, base: s.Base, perm: s.Perm, size: s.size, pages: ps})
	}
	if m.shadow != nil {
		cp.shadow = m.shadow.Snapshot()
	}
	return cp
}

// dsShadow is a minimal reference ShadowChecker used to test that
// checkpoints carry shadow state in lockstep with data pages: a plain
// per-byte poison set whose Snapshot deep-copies the map. The real
// sanitizer (internal/shadow) runs the same lockstep contract in its
// own checkpoint tests; here the stub keeps the differential harness
// free of the compressed encoding so a divergence unambiguously blames
// the checkpoint plumbing.
type dsShadow struct{ poison map[Addr]bool }

func newDSShadow() *dsShadow { return &dsShadow{poison: map[Addr]bool{}} }

func (s *dsShadow) CheckWrite(addr Addr, n uint64) *Fault {
	for i := uint64(0); i < n; i++ {
		if b := addr.Add(int64(i)); s.poison[b] {
			return &Fault{Kind: FaultShadow, Addr: b, Size: n, Shadow: "test-poison"}
		}
	}
	return nil
}

func (s *dsShadow) Snapshot() any {
	cp := make(map[Addr]bool, len(s.poison))
	for k := range s.poison {
		cp[k] = true
	}
	return cp
}

func (s *dsShadow) Restore(v any) {
	m, ok := v.(map[Addr]bool)
	if !ok {
		return
	}
	s.poison = make(map[Addr]bool, len(m))
	for k := range m {
		s.poison[k] = true
	}
}

// state renders the poison set deterministically for twin comparison.
func (s *dsShadow) state() string {
	var addrs []uint64
	for a := range s.poison {
		addrs = append(addrs, uint64(a))
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var sb strings.Builder
	for _, a := range addrs {
		fmt.Fprintf(&sb, "%#x ", a)
	}
	return sb.String()
}

// dsOp is one step of a differential scenario, applied identically to
// both twins. Fields are interpreted per Kind; unused fields are zero.
type dsOp struct {
	Kind string // write poke memset strncpy wcstring read protect shpoison shunpoison checkpoint restore diff
	Seg  int    // index into the scenario's segment layout
	Off  uint64 // offset within the segment (may run past the end: faults must match)
	Len  uint64 // length for memset/strncpy, width for read
	Fill byte   // memset fill byte
	Data []byte // write/poke payload
	Str  string // strncpy/wcstring source
	Perm Perm   // protect target permissions
}

func (o dsOp) String() string {
	switch o.Kind {
	case "write", "poke":
		return fmt.Sprintf("%s seg=%d off=%#x len=%d", o.Kind, o.Seg, o.Off, len(o.Data))
	case "memset":
		return fmt.Sprintf("memset seg=%d off=%#x len=%d fill=%#x", o.Seg, o.Off, o.Len, o.Fill)
	case "strncpy":
		return fmt.Sprintf("strncpy seg=%d off=%#x n=%d src=%d bytes", o.Seg, o.Off, o.Len, len(o.Str))
	case "wcstring":
		return fmt.Sprintf("wcstring seg=%d off=%#x src=%d bytes", o.Seg, o.Off, len(o.Str))
	case "read":
		return fmt.Sprintf("read seg=%d off=%#x width=%d", o.Seg, o.Off, o.Len)
	case "protect":
		return fmt.Sprintf("protect seg=%d perm=%s", o.Seg, o.Perm)
	case "shpoison", "shunpoison":
		return fmt.Sprintf("%s seg=%d off=%#x len=%d", o.Kind, o.Seg, o.Off, o.Len)
	default:
		return o.Kind
	}
}

// dsLayout is one randomly drawn segment map, shared by both twins.
type dsLayout struct {
	kinds []SegKind
	bases []Addr
	sizes []uint64
}

// randLayout draws 1..4 disjoint RW segments with sizes from a single
// byte to several pages, deliberately misaligned so writes straddle
// page boundaries and tail pages are partial.
func randLayout(rng *rand.Rand) dsLayout {
	n := 1 + rng.Intn(4)
	var l dsLayout
	base := Addr(0x1000 + rng.Intn(4096))
	kinds := []SegKind{SegData, SegBSS, SegHeap, SegStack}
	for i := 0; i < n; i++ {
		size := uint64(1 + rng.Intn(3*PageSize+511))
		l.kinds = append(l.kinds, kinds[i])
		l.bases = append(l.bases, base)
		l.sizes = append(l.sizes, size)
		base = base.Add(int64(size) + int64(1+rng.Intn(2*PageSize)))
	}
	return l
}

func (l dsLayout) build(t *testing.T) *Memory {
	t.Helper()
	m := &Memory{}
	for i := range l.kinds {
		if _, err := m.Map(l.kinds[i], l.bases[i], l.sizes[i], PermRW); err != nil {
			t.Fatalf("map twin segment: %v", err)
		}
	}
	return m
}

// randOps draws a random op sequence against layout l. Offsets are
// usually in range but occasionally run past a segment end so fault
// behaviour is exercised too.
func randOps(rng *rand.Rand, l dsLayout) []dsOp {
	kinds := []string{
		"write", "write", "write", "poke", "memset", "strncpy", "wcstring",
		"read", "protect", "shpoison", "shpoison", "shunpoison",
		"checkpoint", "checkpoint", "restore", "diff",
	}
	n := 8 + rng.Intn(56)
	ops := make([]dsOp, 0, n)
	for i := 0; i < n; i++ {
		seg := rng.Intn(len(l.kinds))
		size := l.sizes[seg]
		off := uint64(rng.Int63n(int64(size + 1))) // may equal size: zero room
		if rng.Intn(8) == 0 {
			off = size + uint64(rng.Intn(64)) // deliberate out-of-range
		}
		op := dsOp{Kind: kinds[rng.Intn(len(kinds))], Seg: seg, Off: off}
		switch op.Kind {
		case "write", "poke":
			ln := rng.Intn(2*PageSize + 3)
			op.Data = make([]byte, ln)
			rng.Read(op.Data)
		case "memset":
			op.Len = uint64(rng.Intn(int(size) + PageSize))
			op.Fill = byte(rng.Intn(256))
		case "strncpy":
			op.Len = uint64(rng.Intn(512))
			op.Str = strings.Repeat("x", rng.Intn(int(op.Len)+1))
		case "wcstring":
			op.Str = strings.Repeat("y", rng.Intn(256))
		case "read":
			op.Len = []uint64{1, 2, 4, 8}[rng.Intn(4)]
		case "protect":
			perms := []Perm{PermRead, PermWrite, PermRW, PermRWX}
			op.Perm = perms[rng.Intn(len(perms))]
		case "shpoison", "shunpoison":
			op.Len = uint64(1 + rng.Intn(96))
		}
		ops = append(ops, op)
	}
	// Always end with a restore and a diff when any checkpoint exists,
	// so every scenario exercises the interesting paths at least once —
	// including a shadow snapshot taken at checkpoint time, cleared
	// afterwards, and reinstated by the restore.
	ops = append(ops,
		dsOp{Kind: "shpoison", Seg: 0, Off: 1, Len: 2},
		dsOp{Kind: "checkpoint"}, dsOp{Kind: "write", Seg: 0, Data: []byte{0xAA}},
		dsOp{Kind: "shunpoison", Seg: 0, Off: 1, Len: 2},
		dsOp{Kind: "diff"}, dsOp{Kind: "restore"})
	return ops
}

// dsTwins holds the paired state: the deep twin checkpoints with
// deepCheckpoint, the cow twin with CowCheckpoint.
type dsTwins struct {
	l       dsLayout
	deep    *Memory
	cow     *Memory
	deepSh  *dsShadow
	cowSh   *dsShadow
	deepCPs []*Checkpoint
	cowCPs  []*Checkpoint
	// cpShadow records the shadow plane's rendered state at each
	// checkpoint: an absolute oracle for restores, since a
	// forgotten-shadow bug would hit both twins symmetrically and
	// never diverge on its own.
	cpShadow []string
	restores int
}

func newTwins(t *testing.T, l dsLayout) *dsTwins {
	tw := &dsTwins{l: l, deep: l.build(t), cow: l.build(t),
		deepSh: newDSShadow(), cowSh: newDSShadow()}
	tw.deep.SetShadow(tw.deepSh)
	tw.cow.SetShadow(tw.cowSh)
	return tw
}

// step applies op to both twins and returns a description of the first
// divergence, or "" when they still agree.
func (tw *dsTwins) step(op dsOp) string {
	addr := func() Addr { return tw.l.bases[op.Seg].Add(int64(op.Off)) }
	apply := func(m *Memory) error {
		switch op.Kind {
		case "write":
			return m.Write(addr(), op.Data)
		case "poke":
			return m.Poke(addr(), op.Data)
		case "memset":
			return m.Memset(addr(), op.Fill, op.Len)
		case "strncpy":
			return m.StrNCpy(addr(), op.Str, op.Len)
		case "wcstring":
			return m.WriteCString(addr(), op.Str)
		case "protect":
			return m.Protect(tw.l.kinds[op.Seg], op.Perm)
		}
		return nil
	}
	switch op.Kind {
	case "shpoison":
		for _, sh := range []*dsShadow{tw.deepSh, tw.cowSh} {
			for i := uint64(0); i < op.Len; i++ {
				sh.poison[addr().Add(int64(i))] = true
			}
		}
	case "shunpoison":
		for _, sh := range []*dsShadow{tw.deepSh, tw.cowSh} {
			for i := uint64(0); i < op.Len; i++ {
				delete(sh.poison, addr().Add(int64(i)))
			}
		}
	case "read":
		// Each twin's disarmed read must match its observed read, and
		// the twins must match each other.
		rd, d := readParity(tw.deep, readUint(addr(), int(op.Len)))
		if d != "" {
			return "deep twin: " + d
		}
		rc, d := readParity(tw.cow, readUint(addr(), int(op.Len)))
		if d != "" {
			return "cow twin: " + d
		}
		if !rd.equal(rc) {
			return fmt.Sprintf("read: deep=%v cow=%v", rd, rc)
		}
	case "checkpoint":
		tw.deepCPs = append(tw.deepCPs, deepCheckpoint(tw.deep))
		tw.cowCPs = append(tw.cowCPs, tw.cow.CowCheckpoint())
		tw.cpShadow = append(tw.cpShadow, tw.deepSh.state())
	case "restore":
		if len(tw.deepCPs) == 0 {
			return ""
		}
		i := len(tw.deepCPs) - 1
		_, errD := tw.deep.RestoreDirty(tw.deepCPs[i])
		_, errC := tw.cow.RestoreDirty(tw.cowCPs[i])
		if d := matchErr("restore", errD, errC); d != "" {
			return d
		}
		if got := tw.deepSh.state(); got != tw.cpShadow[i] {
			return fmt.Sprintf("restore lost shadow lockstep: got [%s], checkpointed [%s]", got, tw.cpShadow[i])
		}
		tw.restores++
	case "diff":
		for i := range tw.deepCPs {
			dd, errD := tw.deep.DiffDirty(tw.deepCPs[i])
			dc, errC := tw.cow.DiffDirty(tw.cowCPs[i])
			if d := matchErr("diff", errD, errC); d != "" {
				return d
			}
			if d := matchDiffs(dd, dc); d != "" {
				return fmt.Sprintf("diff vs checkpoint %d: %s", i, d)
			}
		}
	default:
		errD := apply(tw.deep)
		errC := apply(tw.cow)
		if d := matchErr(op.Kind, errD, errC); d != "" {
			return d
		}
	}
	return tw.compare()
}

// compare checks that the twins' full images are byte-identical.
func (tw *dsTwins) compare() string {
	for i := range tw.l.kinds {
		sd, errD := tw.deep.Snapshot(tw.l.bases[i], tw.l.sizes[i])
		sc, errC := tw.cow.Snapshot(tw.l.bases[i], tw.l.sizes[i])
		if d := matchErr("snapshot", errD, errC); d != "" {
			return d
		}
		if !bytes.Equal(sd.Data, sc.Data) {
			off := 0
			for off < len(sd.Data) && sd.Data[off] == sc.Data[off] {
				off++
			}
			return fmt.Sprintf("%s segment diverges at +%#x: deep=%#x cow=%#x",
				tw.l.kinds[i], off, sd.Data[off], sc.Data[off])
		}
		pd := tw.deep.Segment(tw.l.kinds[i]).Perm
		pc := tw.cow.Segment(tw.l.kinds[i]).Perm
		if pd != pc {
			return fmt.Sprintf("%s perms diverge: deep=%s cow=%s", tw.l.kinds[i], pd, pc)
		}
	}
	// The shadow planes must stay in lockstep with the data pages: a
	// restore that rolled bytes back without the matching poison state
	// (or vice versa) diverges here.
	if sd, sc := tw.deepSh.state(), tw.cowSh.state(); sd != sc {
		return fmt.Sprintf("shadow planes diverge: deep=[%s] cow=[%s]", sd, sc)
	}
	return ""
}

func matchErr(what string, a, b error) string {
	switch {
	case a == nil && b == nil:
		return ""
	case a == nil || b == nil:
		return fmt.Sprintf("%s: deep err=%v, cow err=%v", what, a, b)
	case a.Error() != b.Error():
		return fmt.Sprintf("%s: error text diverges: deep=%q cow=%q", what, a, b)
	}
	return ""
}

func matchDiffs(a, b []DiffRegion) string {
	if len(a) != len(b) {
		return fmt.Sprintf("region count: deep=%d cow=%d (deep=%v cow=%v)", len(a), len(b), a, b)
	}
	for i := range a {
		if a[i].Addr != b[i].Addr || !bytes.Equal(a[i].Old, b[i].Old) || !bytes.Equal(a[i].New, b[i].New) {
			return fmt.Sprintf("region %d: deep=%+v cow=%+v", i, a[i], b[i])
		}
	}
	return ""
}

// runScenario replays ops from scratch and returns the first
// divergence message (with the failing op index), or "".
func runScenario(t *testing.T, l dsLayout, ops []dsOp) string {
	tw := newTwins(t, l)
	for i, op := range ops {
		if d := tw.step(op); d != "" {
			return fmt.Sprintf("op %d (%s): %s", i, op, d)
		}
	}
	return ""
}

// shrinkOps greedily removes ops while the divergence persists,
// returning a (locally) minimal failing sequence. The greedy pass
// itself lives in internal/shrink so the foundry triage pipeline can
// reuse it.
func shrinkOps(t *testing.T, l dsLayout, ops []dsOp) []dsOp {
	return shrink.Greedy(ops, func(cand []dsOp) bool {
		return runScenario(t, l, cand) != ""
	})
}

func TestDifferentialDeepVsCow(t *testing.T) {
	const iterations = 150
	for seed := int64(0); seed < iterations; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := randLayout(rng)
		ops := randOps(rng, l)
		if d := runScenario(t, l, ops); d != "" {
			minOps := shrinkOps(t, l, ops)
			var sb strings.Builder
			for i, op := range minOps {
				fmt.Fprintf(&sb, "  %2d: %s\n", i, op)
			}
			t.Fatalf("seed %d diverges: %s\nshrunk to %d ops (from %d):\n%s\nfinal divergence: %s",
				seed, d, len(minOps), len(ops), sb.String(), runScenario(t, l, minOps))
		}
	}
}

// TestDifferentialRestoreEquivalence pins the core contract directly:
// after interleaved writes and restores, restoring a COW checkpoint
// must produce the exact bytes restoring a deep copy produces.
func TestDifferentialRestoreEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := randLayout(rng)
	tw := newTwins(t, l)

	// Dirty both twins identically, checkpoint, dirty again, restore.
	for i := 0; i < 20; i++ {
		seg := rng.Intn(len(l.kinds))
		off := uint64(rng.Int63n(int64(l.sizes[seg])))
		b := make([]byte, 1+rng.Intn(128))
		rng.Read(b)
		op := dsOp{Kind: "poke", Seg: seg, Off: off, Data: b}
		if d := tw.step(op); d != "" {
			t.Fatalf("setup op %d: %s", i, d)
		}
	}
	if d := tw.step(dsOp{Kind: "checkpoint"}); d != "" {
		t.Fatal(d)
	}
	for i := 0; i < 20; i++ {
		seg := rng.Intn(len(l.kinds))
		off := uint64(rng.Int63n(int64(l.sizes[seg])))
		b := make([]byte, 1+rng.Intn(128))
		rng.Read(b)
		if d := tw.step(dsOp{Kind: "poke", Seg: seg, Off: off, Data: b}); d != "" {
			t.Fatalf("dirty op %d: %s", i, d)
		}
	}
	if d := tw.step(dsOp{Kind: "restore"}); d != "" {
		t.Fatal(d)
	}
	if tw.restores != 1 {
		t.Fatalf("restores = %d, want 1", tw.restores)
	}

	// After restore both twins must still diff clean against the
	// checkpoint they restored from.
	if d := tw.step(dsOp{Kind: "diff"}); d != "" {
		t.Fatal(d)
	}
	dd, err := tw.cow.DiffDirty(tw.cowCPs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(dd) != 0 {
		t.Fatalf("cow twin diff after restore = %v, want clean", dd)
	}
}
