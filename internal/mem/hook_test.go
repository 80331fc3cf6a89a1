package mem

import (
	"bytes"
	"testing"
)

func hookImage(t *testing.T) *Image {
	t.Helper()
	img, err := NewProcessImage(ImageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestAccessHookObservesReadsAndWrites(t *testing.T) {
	img := hookImage(t)
	m := img.Mem
	var kinds []AccessKind
	m.SetAccessHook(func(k AccessKind, addr Addr, data []byte) HookDecision {
		kinds = append(kinds, k)
		return HookDecision{}
	})
	addr := img.Data.Base
	if err := m.WriteU32(addr, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if v, err := m.ReadU32(addr); err != nil || v != 0xdeadbeef {
		t.Fatalf("read back %#x, %v", v, err)
	}
	if len(kinds) != 2 || kinds[0] != AccessWrite || kinds[1] != AccessRead {
		t.Fatalf("hook saw %v, want [write read]", kinds)
	}
}

func TestAccessHookInjectsFault(t *testing.T) {
	img := hookImage(t)
	m := img.Mem
	inject := &Fault{Kind: FaultPerm, Addr: img.Data.Base, Size: 4, Want: PermWrite}
	m.SetAccessHook(func(k AccessKind, addr Addr, data []byte) HookDecision {
		return HookDecision{Fault: inject}
	})
	err := m.WriteU32(img.Data.Base, 1)
	f, ok := IsFault(err)
	if !ok || f != inject {
		t.Fatalf("injected fault not raised: %v", err)
	}
	// Memory must be untouched by the faulted write.
	m.SetAccessHook(nil)
	if v, _ := m.ReadU32(img.Data.Base); v != 0 {
		t.Fatalf("faulted write still stored %#x", v)
	}
}

func TestAccessHookDropsWrite(t *testing.T) {
	img := hookImage(t)
	m := img.Mem
	m.SetAccessHook(func(k AccessKind, addr Addr, data []byte) HookDecision {
		if k == AccessWrite {
			return HookDecision{Drop: true}
		}
		return HookDecision{}
	})
	if err := m.WriteU64(img.Data.Base, 0x1122334455667788); err != nil {
		t.Fatalf("dropped write reported failure: %v", err)
	}
	m.SetAccessHook(nil)
	if v, _ := m.ReadU64(img.Data.Base); v != 0 {
		t.Fatalf("dropped write stored %#x", v)
	}
}

func TestAccessHookTornWrite(t *testing.T) {
	img := hookImage(t)
	m := img.Mem
	m.SetAccessHook(func(k AccessKind, addr Addr, data []byte) HookDecision {
		if k == AccessWrite && len(data) == 4 {
			// Tear the store: only the first two bytes land.
			return HookDecision{Replace: append([]byte(nil), data[:2]...)}
		}
		return HookDecision{}
	})
	if err := m.WriteU32(img.Data.Base, 0xaabbccdd); err != nil {
		t.Fatal(err)
	}
	m.SetAccessHook(nil)
	got, err := m.Read(img.Data.Base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0xdd, 0xcc, 0x00, 0x00}) {
		t.Fatalf("torn write stored % x", got)
	}
}

func TestAccessHookCorruptsRead(t *testing.T) {
	img := hookImage(t)
	m := img.Mem
	if err := m.WriteU8(img.Data.Base, 0x01); err != nil {
		t.Fatal(err)
	}
	m.SetAccessHook(func(k AccessKind, addr Addr, data []byte) HookDecision {
		if k == AccessRead {
			flipped := append([]byte(nil), data...)
			flipped[0] ^= 0x80 // single bit flip on the read path
			return HookDecision{Replace: flipped}
		}
		return HookDecision{}
	})
	v, err := m.ReadU8(img.Data.Base)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x81 {
		t.Fatalf("corrupted read = %#x, want 0x81", v)
	}
	m.SetAccessHook(nil)
	if v, _ := m.ReadU8(img.Data.Base); v != 0x01 {
		t.Fatalf("memory mutated by read corruption: %#x", v)
	}
}

func TestHookBypassedByHarnessPaths(t *testing.T) {
	img := hookImage(t)
	m := img.Mem
	calls := 0
	m.SetAccessHook(func(k AccessKind, addr Addr, data []byte) HookDecision {
		calls++
		return HookDecision{Drop: true}
	})
	// Poke (loader), Snapshot, Checkpoint and Restore are harness
	// machinery and must not be chaos targets.
	if err := m.Poke(img.Data.Base, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(img.Data.Base, 3); err != nil {
		t.Fatal(err)
	}
	cp := m.CowCheckpoint()
	if _, err := m.RestoreDirty(cp); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("harness paths hit the hook %d times", calls)
	}
}

// TestScalarAccessDoesNotAllocate pins the scalar accessors at zero heap
// allocations while nothing that takes a buffer — a hook or a write
// logger — is armed. The observer and the mutation observer take none,
// so they stay armed here.
func TestScalarAccessDoesNotAllocate(t *testing.T) {
	img := hookImage(t)
	m := img.Mem
	var seen uint64
	m.SetAccessObserver(func(k AccessKind, addr Addr, n uint64) { seen += n })
	m.SetMutObserver(func(addr Addr, n uint64) { seen += n })
	a := img.Data.Base
	for _, c := range []struct {
		name string
		f    func() error
	}{
		{"ReadU8", func() error { _, err := m.ReadU8(a); return err }},
		{"ReadU16", func() error { _, err := m.ReadU16(a); return err }},
		{"ReadU32", func() error { _, err := m.ReadU32(a); return err }},
		{"ReadU64", func() error { _, err := m.ReadU64(a); return err }},
		{"ReadInt", func() error { _, err := m.ReadInt(a, 4); return err }},
		{"WriteU8", func() error { return m.WriteU8(a, 0x11) }},
		{"WriteU16", func() error { return m.WriteU16(a, 0x1122) }},
		{"WriteU32", func() error { return m.WriteU32(a, 0x11223344) }},
		{"WriteU64", func() error { return m.WriteU64(a, 0x1122334455667788) }},
		{"WriteInt", func() error { return m.WriteInt(a, -5, 4) }},
	} {
		var err error
		if allocs := testing.AllocsPerRun(100, func() { err = c.f() }); allocs != 0 {
			t.Errorf("%s: %v allocations per call, want 0", c.name, allocs)
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
	if seen == 0 {
		t.Error("observers never fired")
	}
}

// TestAccessHookScribbleIsIsolated arms a hook that overwrites its data
// argument: neither the stored bytes, the caller's buffer nor the value
// returned to the program may change, because the hook sees a copy.
func TestAccessHookScribbleIsIsolated(t *testing.T) {
	img := hookImage(t)
	m := img.Mem
	a := img.Data.Base
	m.SetAccessHook(func(k AccessKind, addr Addr, data []byte) HookDecision {
		for i := range data {
			data[i] = 0xee
		}
		return HookDecision{}
	})
	if err := m.WriteU32(a, 0x11223344); err != nil {
		t.Fatal(err)
	}
	if v, err := m.ReadU32(a); err != nil || v != 0x11223344 {
		t.Fatalf("ReadU32 under a scribbling hook = %#x, %v; want 0x11223344", v, err)
	}
	src := []byte{1, 2, 3, 4}
	if err := m.Write(a.Add(8), src); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, []byte{1, 2, 3, 4}) {
		t.Fatalf("hook scribbled the caller's buffer: % x", src)
	}
	if got, err := m.Read(a.Add(8), 4); err != nil || !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("Read under a scribbling hook = % x, %v", got, err)
	}
	m.SetAccessHook(nil)
	if v, _ := m.ReadU32(a); v != 0x11223344 {
		t.Fatalf("stored %#x, want 0x11223344", v)
	}
	if got, _ := m.Read(a.Add(8), 4); !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("stored % x, want 01 02 03 04", got)
	}
}

// TestAccessHookDecisionsOnScalarPaths checks that Replace, Drop and
// Fault still apply at every scalar width.
func TestAccessHookDecisionsOnScalarPaths(t *testing.T) {
	img := hookImage(t)
	m := img.Mem
	a := img.Data.Base
	inject := &Fault{Kind: FaultPerm, Addr: a, Want: PermRead}
	for _, width := range []int{1, 2, 4, 8} {
		if err := m.WriteUint(a, 0, 8); err != nil {
			t.Fatal(err)
		}
		var d HookDecision
		m.SetAccessHook(func(k AccessKind, addr Addr, data []byte) HookDecision { return d })

		d = HookDecision{Replace: bytes.Repeat([]byte{0x7f}, width)}
		want := uint64(0x7f7f7f7f7f7f7f7f) >> (64 - 8*width)
		if v, err := m.ReadUint(a, width); err != nil || v != want {
			t.Errorf("width %d: replaced read = %#x, %v; want %#x", width, v, err, want)
		}
		if err := m.WriteUint(a, 1, width); err != nil {
			t.Errorf("width %d: replaced write: %v", width, err)
		}
		d = HookDecision{Fault: inject}
		if _, err := m.ReadUint(a, width); err != error(inject) {
			t.Errorf("width %d: read fault = %v, want the injected fault", width, err)
		}
		if err := m.WriteUint(a, 2, width); err != error(inject) {
			t.Errorf("width %d: write fault = %v, want the injected fault", width, err)
		}
		d = HookDecision{Drop: true}
		if err := m.WriteUint(a, 3, width); err != nil {
			t.Errorf("width %d: dropped write reported %v", width, err)
		}
		m.SetAccessHook(nil)
		// Only the replaced write landed: its bytes, not the program's 1.
		if v, _ := m.ReadUint(a, width); v != want {
			t.Errorf("width %d: stored %#x, want the replacement %#x", width, v, want)
		}
	}
}
