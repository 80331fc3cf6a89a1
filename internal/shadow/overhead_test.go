package shadow

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/mem"
)

// Ceilings on the sanitizer's write-path cost, as multiples of a memory
// that never used the mem.SetShadow seam. A detached checker must cost
// next to nothing (the zero-cost-when-disabled contract); an armed one
// must stay within an order of magnitude.
const (
	maxDisabledOverhead = 1.5
	maxArmedOverhead    = 10.0
)

// overheadRounds is how many rounds the configurations are timed in;
// each keeps its best.
const overheadRounds = 5

// newImage maps a fresh canonical process image; the timed writes land
// in its data segment.
func newImage(t *testing.T) *mem.Image {
	t.Helper()
	img, err := mem.NewProcessImage(mem.ImageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// timeRound times 8-byte writes at rotating in-bounds offsets of each
// image's data segment, and returns nanoseconds per write for each.
// The images take turns in chunks of 4096 writes until the round spans
// 40ms, so all of them are timed across the same stretch of wall clock
// and a burst of load from another process lands on each alike. The
// writes allocate nothing, so it collects first: a collection cycle
// set off by mapping the images would otherwise run beside them.
func timeRound(t *testing.T, imgs []*mem.Image) []float64 {
	t.Helper()
	const chunk = 4096
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	spent := make([]time.Duration, len(imgs))
	writes := 0
	runtime.GC()
	for start := time.Now(); time.Since(start) < 40*time.Millisecond; writes += chunk {
		for i, img := range imgs {
			slots := int64(img.Data.Size()-uint64(len(payload))) / 16
			t0 := time.Now()
			for w := writes; w < writes+chunk; w++ {
				if err := img.Mem.Write(img.Data.Base.Add(int64(w)%slots*16), payload); err != nil {
					t.Fatal(err)
				}
			}
			spent[i] += time.Since(t0)
		}
	}
	ns := make([]float64, len(imgs))
	for i := range spent {
		ns[i] = float64(spent[i].Nanoseconds()) / float64(writes)
	}
	return ns
}

// TestWriteOverheadGate times the data-segment write window under four
// configurations: baseline (the seam was never used), disabled (a
// sanitizer attached, then detached), armed-clean (attached, nothing
// poisoned) and armed-poisoned (red zones and quarantine in other
// segments, every write still clean). Each round maps a fresh image per
// configuration and interleaves their writes; each configuration keeps
// its best round. Disabled must stay within maxDisabledOverhead of the
// baseline and armed-clean within maxArmedOverhead; the armed-poisoned
// ratio is logged.
func TestWriteOverheadGate(t *testing.T) {
	configs := []struct {
		name  string
		setup func(*mem.Image)
	}{
		{"baseline", func(*mem.Image) {}},
		{"disabled", func(img *mem.Image) {
			img.Mem.SetShadow(New())
			img.Mem.SetShadow(nil)
		}},
		{"armed-clean", func(img *mem.Image) { img.Mem.SetShadow(New()) }},
		{"armed-poisoned", func(img *mem.Image) {
			s := New()
			for i := 0; i < 64; i++ {
				s.Poison(KindRedzone, img.Heap.Base.Add(int64(i)*64), 16, "bench red zone")
				s.Quarantine(img.BSS.Base.Add(int64(i)*64), 32, "bench quarantine")
			}
			img.Mem.SetShadow(s)
		}},
	}
	best := make([]float64, len(configs))
	for r := 0; r < overheadRounds; r++ {
		imgs := make([]*mem.Image, len(configs))
		for i, c := range configs {
			imgs[i] = newImage(t)
			c.setup(imgs[i])
		}
		for i, ns := range timeRound(t, imgs) {
			if r == 0 || ns < best[i] {
				best[i] = ns
			}
		}
	}
	for i, c := range configs {
		t.Logf("%-14s %6.1f ns/write, %5.2fx", c.name, best[i], best[i]/best[0])
	}
	if ratio := best[1] / best[0]; ratio > maxDisabledOverhead {
		t.Errorf("disabled write path %.2fx the baseline, want at most %.1fx", ratio, maxDisabledOverhead)
	}
	if ratio := best[2] / best[0]; ratio > maxArmedOverhead {
		t.Errorf("armed clean write path %.2fx the baseline, want at most %.1fx", ratio, maxArmedOverhead)
	}
}
