package shadow

import (
	"testing"

	"repro/internal/mem"
)

// TestCheckpointCarriesShadowState pins the COW-interaction contract
// with the real sanitizer attached to a real address space: a
// checkpoint captures the shadow plane, and RestoreDirty reinstates it
// in lockstep with the data pages — a rollback never leaves quarantine
// or red-zone state disagreeing with the bytes it describes.
func TestCheckpointCarriesShadowState(t *testing.T) {
	// The copy-on-write checkpoint is the only one the mem API offers.
	t.Run("cow", func(t *testing.T) {
		m := new(mem.Memory)
		if _, err := m.Map(mem.SegData, 0x1000, 4096, mem.PermRW); err != nil {
			t.Fatal(err)
		}
		s := New()
		m.SetShadow(s)
		s.Poison(KindRedzone, 0x1100, 16, "rz")
		s.Quarantine(0x1200, 8, "stale")
		if err := m.Write(0x1000, []byte{1, 2, 3, 4}); err != nil {
			t.Fatalf("pre-checkpoint benign write: %v", err)
		}
		baseline := s.StateString()

		cp := m.CowCheckpoint()

		// Diverge both planes: bytes change, poison is lifted where it
		// was armed and armed where it was clear.
		s.Unpoison(0x1100, 16)
		s.Poison(KindVPtr, 0x1300, 8, "vptr")
		if err := m.Write(0x1100, []byte{0xAA, 0xBB}); err != nil {
			t.Fatalf("write after unpoison: %v", err)
		}
		if err := m.Write(0x1300, []byte{0xCC}); err == nil {
			t.Fatal("write into fresh poison passed")
		}
		if s.StateString() == baseline {
			t.Fatal("mutations did not change the shadow plane; test is vacuous")
		}

		restored, err := m.RestoreDirty(cp)
		if err != nil {
			t.Fatal(err)
		}
		if restored == 0 {
			t.Error("restore touched no pages despite dirtied data")
		}
		if got := s.StateString(); got != baseline {
			t.Errorf("shadow plane out of lockstep after restore:\n got: %s\nwant: %s", got, baseline)
		}
		// The restored plane is live, not just a rendering: the old red
		// zone rejects writes again, the rolled-back poison is gone.
		f := s.CheckWrite(0x1100, 1)
		if f == nil || f.Shadow != "redzone" {
			t.Errorf("restored red zone fault = %v, want redzone", f)
		}
		if err := m.Write(0x1300, []byte{0xCC}); err != nil {
			t.Errorf("write to rolled-back poison still faults: %v", err)
		}
		// Data pages rolled back with it.
		snap, err := m.Snapshot(0x1100, 2)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Data[0] == 0xAA {
			t.Error("data bytes survived the restore")
		}
	})
}

// TestRestoreWithoutShadowIsInert: a checkpoint that captured a shadow
// snapshot restores cleanly into a memory whose checker was detached —
// the data pages roll back and nothing panics.
func TestRestoreWithoutShadowIsInert(t *testing.T) {
	m := new(mem.Memory)
	if _, err := m.Map(mem.SegData, 0x1000, 4096, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	s := New()
	m.SetShadow(s)
	s.Poison(KindRedzone, 0x1100, 8, "rz")
	cp := m.CowCheckpoint()
	m.SetShadow(nil)
	if err := m.Write(0x1100, []byte{0xAA}); err != nil {
		t.Fatalf("write with checker detached: %v", err)
	}
	if _, err := m.RestoreDirty(cp); err != nil {
		t.Fatal(err)
	}
	if b, err := m.Snapshot(0x1100, 1); err != nil || b.Data[0] == 0xAA {
		t.Errorf("data restore failed: %v %v", b, err)
	}
}
