package mem

import (
	"testing"
	"time"
)

// The checkpoint benchmarks compare the two rollback strategies on the
// canonical process image under the two workload shapes that matter:
//
//   - sparse: a handful of scattered single-word writes — the footprint
//     of one chaos cell or one scenario run. This is the case the COW
//     path is built for: restore cost proportional to dirty pages, not
//     address-space size.
//   - dense: every data/heap/stack byte rewritten — the worst case for
//     COW (every touched page was copied anyway), where it should still
//     be no slower than the deep copy by more than a small constant.
//
// The deep copy is deepCheckpoint, the reference model the differential
// harness compares against. benchstat over
// `go test -bench 'Checkpoint(Deep|COW)' ./internal/mem` gives the
// comparison; TestCowSparseCycleBeatsDeepCopy gates the sparse shape.

// benchImage builds the default canonical process image.
func benchImage(tb testing.TB) *Image {
	tb.Helper()
	img, err := NewProcessImage(ImageConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

// sparseWrites dirties a few pages across three segments, the shape of
// one simulated run's write set.
func sparseWrites(tb testing.TB, img *Image) {
	tb.Helper()
	for _, w := range []struct {
		addr Addr
		val  byte
	}{
		{img.Data.Base.Add(8), 0x11},
		{img.Data.Base.Add(int64(PageSize * 3)), 0x22},
		{img.BSS.Base.Add(64), 0x33},
		{img.Heap.Base.Add(128), 0x44},
		{img.Stack.End().Add(-16), 0x55},
	} {
		if err := img.Mem.Poke(w.addr, []byte{w.val, w.val ^ 0xFF}); err != nil {
			tb.Fatal(err)
		}
	}
}

// denseWrites rewrites data, heap, and stack wholesale.
func denseWrites(tb testing.TB, img *Image) {
	tb.Helper()
	for _, s := range []*Segment{img.Data, img.Heap, img.Stack} {
		if err := img.Mem.Memset(s.Base, 0xA5, s.Size()); err != nil {
			tb.Fatal(err)
		}
	}
}

// checkpointCycle is one rollback cycle: checkpoint, dirty, restore —
// by deep copy, or by copy-on-write.
func checkpointCycle(tb testing.TB, img *Image, dirty func(testing.TB, *Image), cow bool) {
	var cp *Checkpoint
	if cow {
		cp = img.Mem.CowCheckpoint()
	} else {
		cp = deepCheckpoint(img.Mem)
	}
	dirty(tb, img)
	if _, err := img.Mem.RestoreDirty(cp); err != nil {
		tb.Fatal(err)
	}
}

func benchCycle(b *testing.B, dirty func(testing.TB, *Image), cow bool) {
	img := benchImage(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checkpointCycle(b, img, dirty, cow)
	}
}

func BenchmarkCheckpointDeep(b *testing.B) {
	b.Run("sparse", func(b *testing.B) { benchCycle(b, sparseWrites, false) })
	b.Run("dense", func(b *testing.B) { benchCycle(b, denseWrites, false) })
}

func BenchmarkCheckpointCOW(b *testing.B) {
	b.Run("sparse", func(b *testing.B) { benchCycle(b, sparseWrites, true) })
	b.Run("dense", func(b *testing.B) { benchCycle(b, denseWrites, true) })
}

// minCowSpeedup is the floor for the sparse workload: a copy-on-write
// checkpoint+restore cycle must be at least this many times as fast as
// the deep copy's.
const minCowSpeedup = 1.0

// cycleNS times checkpointCycle on img after three warm-up cycles (the
// first pays one-time copies of earlier state), doubling the iteration
// count until the run spans 50ms, and returns nanoseconds per cycle.
func cycleNS(t *testing.T, img *Image, dirty func(testing.TB, *Image), cow bool) int64 {
	for i := 0; i < 3; i++ {
		checkpointCycle(t, img, dirty, cow)
	}
	for iters := 1; ; iters *= 2 {
		start := time.Now()
		for i := 0; i < iters; i++ {
			checkpointCycle(t, img, dirty, cow)
		}
		if elapsed := time.Since(start); elapsed >= 50*time.Millisecond || iters >= 1<<16 {
			return elapsed.Nanoseconds() / int64(iters)
		}
	}
}

// TestCowSparseCycleBeatsDeepCopy gates the rollback path every chaos
// cell and template-pool clone takes: on the sparse workload the COW
// cycle must be at least minCowSpeedup times as fast as the deep copy.
// The dense factor, COW's worst case, is logged but not gated.
func TestCowSparseCycleBeatsDeepCopy(t *testing.T) {
	img := benchImage(t)
	for _, w := range []struct {
		name  string
		dirty func(testing.TB, *Image)
	}{{"sparse", sparseWrites}, {"dense", denseWrites}} {
		deep := cycleNS(t, img, w.dirty, false)
		cow := cycleNS(t, img, w.dirty, true)
		speedup := float64(deep) / float64(cow)
		t.Logf("%-6s deep %8d ns/cycle, cow %8d ns/cycle, %6.2fx", w.name, deep, cow, speedup)
		if w.name == "sparse" && speedup < minCowSpeedup {
			t.Errorf("sparse COW cycle %.2fx as fast as the deep copy, want at least %.1fx", speedup, minCowSpeedup)
		}
	}
}

// BenchmarkImageConstruct pins what the template pool saves: a cold
// NewProcessImage allocates and zeroes every segment, a pool clone is
// O(pages) pointer bumps.
func BenchmarkImageConstruct(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewProcessImage(ImageConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pool-clone", func(b *testing.B) {
		p := NewImagePool()
		if err := p.Prewarm(ImageConfig{}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := p.Acquire(ImageConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
