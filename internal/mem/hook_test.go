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
	cp := m.Checkpoint()
	if err := m.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("harness paths hit the hook %d times", calls)
	}
}
