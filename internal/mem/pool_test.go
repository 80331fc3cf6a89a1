package mem

import (
	"math"
	"testing"
)

// TestTemplateRefcountDoesNotWrap gives a template page the reference
// count 2³¹ clones would leave behind and requires a clone's write to
// that page to stay out of the template.
func TestTemplateRefcountDoesNotWrap(t *testing.T) {
	p := NewImagePool()
	if err := p.Prewarm(ImageConfig{}); err != nil {
		t.Fatal(err)
	}
	for _, st := range p.Template(ImageConfig{}).segs {
		if st.kind == SegHeap {
			st.pages[0].refs.Store(math.MaxInt32)
		}
	}
	img, _, err := p.Acquire(ImageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := img.Mem.WriteU32(img.Heap.Base, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	fresh, _, err := p.Acquire(ImageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := fresh.Mem.ReadU32(fresh.Heap.Base)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("fresh clone reads %#x at the heap base, want 0: a clone wrote into the template", v)
	}
}
