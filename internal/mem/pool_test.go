package mem

import (
	"sync"
	"testing"
)

// TestPageOwnership pins the copy-on-write invariant: a page is written
// in place only by the one segment that owns it, and no page a
// checkpoint or clone can reach has an owner.
func TestPageOwnership(t *testing.T) {
	t.Run("clone writes stay out of the template and siblings", func(t *testing.T) {
		p := NewImagePool()
		if err := p.Prewarm(ImageConfig{}); err != nil {
			t.Fatal(err)
		}
		a, _, err := p.Acquire(ImageConfig{})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := p.Acquire(ImageConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Mem.WriteU32(a.Heap.Base, 0xdeadbeef); err != nil {
			t.Fatal(err)
		}
		if v, _ := b.Mem.ReadU32(b.Heap.Base); v != 0 {
			t.Fatalf("sibling reads %#x at the heap base, want 0", v)
		}
		if err := b.Mem.WriteU32(b.Heap.Base, 0x11223344); err != nil {
			t.Fatal(err)
		}
		if v, _ := a.Mem.ReadU32(a.Heap.Base); v != 0xdeadbeef {
			t.Fatalf("clone reads %#x after its sibling's write, want 0xdeadbeef", v)
		}
		fresh, _, err := p.Acquire(ImageConfig{})
		if err != nil {
			t.Fatal(err)
		}
		d, err := fresh.Mem.DiffDirty(p.Template(ImageConfig{}))
		if err != nil {
			t.Fatal(err)
		}
		if len(d) != 0 {
			t.Fatalf("fresh clone differs from the template: %v", d)
		}
		if v, _ := fresh.Mem.ReadU32(fresh.Heap.Base); v != 0 {
			t.Fatalf("fresh clone reads %#x at the heap base, want 0: a clone wrote into the template", v)
		}
	})

	t.Run("checkpoint makes the next write to every page copy it", func(t *testing.T) {
		img, err := NewProcessImage(ImageConfig{})
		if err != nil {
			t.Fatal(err)
		}
		m := img.Mem
		cp := m.CowCheckpoint()
		for si, s := range m.segs {
			for pi := range s.pages {
				before := s.pages[pi]
				addr := s.Base.Add(int64(pi) << PageShift)
				if err := m.Poke(addr, []byte{0xA5}); err != nil {
					t.Fatal(err)
				}
				if s.pages[pi] == before {
					t.Fatalf("%s page %d written in place after a checkpoint", s.Kind, pi)
				}
				if cp.segs[si].pages[pi] != before || before[0] != 0 {
					t.Fatalf("%s page %d: checkpoint page replaced or written", s.Kind, pi)
				}
				copied := s.pages[pi]
				if err := m.Poke(addr, []byte{0x5A}); err != nil {
					t.Fatal(err)
				}
				if s.pages[pi] != copied {
					t.Fatalf("%s page %d copied again although the segment owns its copy", s.Kind, pi)
				}
			}
		}
	})

	t.Run("writing a restored page leaves the checkpoint intact", func(t *testing.T) {
		for _, c := range []struct {
			name string
			take func(*Memory) *Checkpoint
		}{
			{"cow", (*Memory).CowCheckpoint},
			{"deep", deepCheckpoint},
		} {
			img, err := NewProcessImage(ImageConfig{})
			if err != nil {
				t.Fatal(err)
			}
			m := img.Mem
			if err := m.WriteU32(img.Data.Base, 0x01020304); err != nil {
				t.Fatal(err)
			}
			cp := c.take(m)
			if err := m.WriteU32(img.Data.Base, 0xAAAAAAAA); err != nil {
				t.Fatal(err)
			}
			if _, err := m.RestoreDirty(cp); err != nil {
				t.Fatal(err)
			}
			if err := m.WriteU32(img.Data.Base, 0xBBBBBBBB); err != nil {
				t.Fatal(err)
			}
			fresh, err := cp.NewImage()
			if err != nil {
				t.Fatal(err)
			}
			if v, _ := fresh.Mem.ReadU32(fresh.Data.Base); v != 0x01020304 {
				t.Fatalf("%s: checkpoint reads %#x after a write to a restored page, want 0x01020304", c.name, v)
			}
			d, err := m.DiffDirty(cp)
			if err != nil {
				t.Fatal(err)
			}
			if len(d) != 1 || d[0].Addr != img.Data.Base {
				t.Fatalf("%s: diff after the write = %v, want one region at the data base", c.name, d)
			}
		}
	})
}

// TestConcurrentClonesWriteSamePage clones one template on two
// goroutines that each write the same page; under -race, a write that
// reached the shared template page shows up as a race, and a fresh
// clone must still read the template's bytes.
func TestConcurrentClonesWriteSamePage(t *testing.T) {
	p := NewImagePool()
	if err := p.Prewarm(ImageConfig{}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				img, _, err := p.Acquire(ImageConfig{})
				if err != nil {
					errs[g] = err
					return
				}
				v := uint32(g)<<16 | uint32(i) | 1
				if err := img.Mem.WriteU32(img.Heap.Base, v); err != nil {
					errs[g] = err
					return
				}
				if got, err := img.Mem.ReadU32(img.Heap.Base); err != nil || got != v {
					t.Errorf("goroutine %d clone %d reads %#x, %v; want %#x", g, i, got, err, v)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	fresh, _, err := p.Acquire(ImageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := fresh.Mem.ReadU32(fresh.Heap.Base); v != 0 {
		t.Fatalf("fresh clone reads %#x at the heap base, want 0: a clone wrote into the template", v)
	}
	d, err := fresh.Mem.DiffDirty(p.Template(ImageConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 0 {
		t.Fatalf("fresh clone differs from the template: %v", d)
	}
}
