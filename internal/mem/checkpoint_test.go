package mem

import "testing"

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	img, err := NewProcessImage(ImageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m := img.Mem
	if err := m.WriteU64(img.Data.Base, 0x1111111111111111); err != nil {
		t.Fatal(err)
	}
	cp := m.CowCheckpoint()
	if cp.NumSegments() != len(m.Segments()) {
		t.Fatalf("checkpoint captured %d segments, want %d", cp.NumSegments(), len(m.Segments()))
	}
	if cp.Bytes() == 0 {
		t.Fatal("checkpoint holds no bytes")
	}

	// Corrupt memory across several segments, and flip stack perms.
	if err := m.WriteU64(img.Data.Base, 0xdeadbeefdeadbeef); err != nil {
		t.Fatal(err)
	}
	if err := m.Memset(img.BSS.Base, 0xff, 128); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteU32(img.Heap.Base.Add(64), 42); err != nil {
		t.Fatal(err)
	}
	if err := m.Protect(SegStack, PermRWX); err != nil {
		t.Fatal(err)
	}

	diff, err := m.DiffDirty(cp)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff) == 0 {
		t.Fatal("corruption not visible in checkpoint diff")
	}

	if _, err := m.RestoreDirty(cp); err != nil {
		t.Fatal(err)
	}
	diff, err = m.DiffDirty(cp)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff) != 0 {
		t.Fatalf("post-restore diff not empty: %d regions, first at %#x", len(diff), uint64(diff[0].Addr))
	}
	if v, err := m.ReadU64(img.Data.Base); err != nil || v != 0x1111111111111111 {
		t.Fatalf("restored data word = %#x, %v", v, err)
	}
	if img.Stack.Perm != PermRW {
		t.Fatalf("stack perm not restored: %s", img.Stack.Perm)
	}
}

func TestCheckpointIndependentOfLaterWrites(t *testing.T) {
	img, err := NewProcessImage(ImageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cp := img.Mem.CowCheckpoint()
	if err := img.Mem.Memset(img.Data.Base, 0xaa, 64); err != nil {
		t.Fatal(err)
	}
	// Restore must bring back the pre-write zeroes, proving the write
	// copied the shared page rather than writing through to the
	// checkpoint.
	if _, err := img.Mem.RestoreDirty(cp); err != nil {
		t.Fatal(err)
	}
	b, err := img.Mem.Read(img.Data.Base, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("byte %d = %#x after restore", i, v)
		}
	}
}

func TestRestoreLayoutMismatch(t *testing.T) {
	imgA, err := NewProcessImage(ImageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	imgB, err := NewProcessImage(ImageConfig{HeapSize: 128 << 10})
	if err != nil {
		t.Fatal(err)
	}
	cp := imgA.Mem.CowCheckpoint()
	if _, err := imgB.Mem.RestoreDirty(cp); err == nil {
		t.Fatal("restore across mismatched layouts succeeded")
	}
	if _, err := imgB.Mem.DiffDirty(cp); err == nil {
		t.Fatal("diff across mismatched layouts succeeded")
	}
	if _, err := imgA.Mem.RestoreDirty(nil); err == nil {
		t.Fatal("restore of nil checkpoint succeeded")
	}
}
