package mem

import (
	"fmt"
	"testing"
)

// scalarRead is one scalar read's result: its value, or its fault.
type scalarRead struct {
	v     uint64
	fault *Fault
}

func (r scalarRead) String() string {
	if r.fault != nil {
		return fmt.Sprintf("fault %+v", *r.fault)
	}
	return fmt.Sprintf("%#x", r.v)
}

func (r scalarRead) equal(o scalarRead) bool {
	if r.fault == nil || o.fault == nil {
		return r.fault == o.fault && r.v == o.v
	}
	return *r.fault == *o.fault
}

func asScalarRead(v uint64, err error) scalarRead {
	if err == nil {
		return scalarRead{v: v}
	}
	f, ok := IsFault(err)
	if !ok {
		f = &Fault{Guard: "not a fault: " + err.Error()}
	}
	return scalarRead{fault: f}
}

// readParity runs read twice: disarmed, where the scalar readers may
// take loadScalar's in-page path, and with a no-op AccessObserver
// armed, which sends every access through load. It returns the
// disarmed result and a description of any difference, or "".
func readParity(m *Memory, read func(*Memory) (uint64, error)) (scalarRead, string) {
	disarmed := asScalarRead(read(m))
	m.SetAccessObserver(func(AccessKind, Addr, uint64) {})
	armed := asScalarRead(read(m))
	m.SetAccessObserver(nil)
	if !disarmed.equal(armed) {
		return disarmed, fmt.Sprintf("disarmed read %v, observed read %v", disarmed, armed)
	}
	return disarmed, ""
}

// readUint returns a read of the width-byte scalar at addr.
func readUint(addr Addr, width int) func(*Memory) (uint64, error) {
	return func(m *Memory) (uint64, error) { return m.ReadUint(addr, width) }
}

// TestScalarReadFastPathParity holds the in-page scalar read and the
// segment cache to load's values and faults at the edges a fuzzer may
// not reach: segment ends, page boundaries, the gap between segments
// and a write-only segment.
func TestScalarReadFastPathParity(t *testing.T) {
	m := &Memory{}
	a, err := m.Map(SegData, 0x10000, 2*PageSize+0x10, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Map(SegHeap, 0x20000, PageSize, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Segment{a, b} {
		fill := make([]byte, s.Size())
		for i := range fill {
			fill[i] = byte(i*7 + 3)
		}
		if err := m.Poke(s.Base, fill); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Protect(SegHeap, PermWrite); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		// warm, when non-zero, is read twice before each path, so seg's
		// cache holds its segment and the second read hits it.
		warm Addr
		read func(*Memory) (uint64, error)
		want FaultKind // 0: the read succeeds
	}{
		{name: "ends at segment end", read: readUint(a.End()-4, 4)},
		{name: "ends at segment end after a hit", warm: a.End() - 1, read: readUint(a.End()-8, 8)},
		{name: "starts at segment end", read: readUint(a.End(), 1), want: FaultUnmapped},
		{name: "starts at segment end after a hit", warm: a.End() - 1, read: readUint(a.End(), 2), want: FaultUnmapped},
		{name: "straddles segment end", warm: a.End() - 1, read: readUint(a.End()-2, 4), want: FaultUnmapped},
		{
			name: "empty read at segment end after a hit",
			warm: a.End() - 1,
			read: func(m *Memory) (uint64, error) {
				got, err := m.Read(a.End(), 0)
				return uint64(len(got)), err
			},
			want: FaultUnmapped,
		},
		{name: "across a page boundary", read: readUint(a.Base+PageSize-2, 4)},
		{name: "across a page boundary after a hit", warm: a.Base, read: readUint(a.Base+2*PageSize-1, 8)},
		{name: "into the gap", warm: a.Base, read: readUint(a.End()+0x100, 4), want: FaultUnmapped},
		{name: "from the gap into a segment", read: readUint(b.Base-2, 4), want: FaultUnmapped},
		{name: "write-only segment", read: readUint(b.Base, 4), want: FaultPerm},
		{name: "write-only segment after a hit", warm: a.Base, read: readUint(b.Base+8, 1), want: FaultPerm},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			read := c.read
			if c.warm != 0 {
				read = func(m *Memory) (uint64, error) {
					for i := 0; i < 2; i++ {
						if _, err := m.ReadU8(c.warm); err != nil {
							return 0, err
						}
					}
					if m.last == nil || !m.last.Contains(c.warm) {
						return 0, fmt.Errorf("warm read left %v in the cache", m.last)
					}
					return c.read(m)
				}
			}
			got, d := readParity(m, read)
			if d != "" {
				t.Fatal(d)
			}
			switch {
			case c.want == 0 && got.fault != nil:
				t.Fatalf("read faulted: %v", got)
			case c.want != 0 && (got.fault == nil || got.fault.Kind != c.want):
				t.Fatalf("read = %v, want a %v fault", got, c.want)
			}
		})
	}
}
