package service

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mem"
	"repro/internal/obs"
)

// templateConfigs are the two canonical image configurations the
// defense catalogue produces (only ExecStack varies).
var templateConfigs = []mem.ImageConfig{{}, {ExecStack: true}}

// assertTemplatesPristine clones a fresh image from every pooled
// template and diffs it against the template: any non-empty diff means
// a past run's writes leaked into shared pages.
func assertTemplatesPristine(t *testing.T, pool *mem.ImagePool) {
	t.Helper()
	for _, cfg := range templateConfigs {
		cp := pool.Template(cfg)
		if cp == nil {
			t.Fatalf("template for %+v missing (prewarm broken)", cfg)
		}
		if !cp.COW() {
			t.Fatalf("template for %+v is not a COW checkpoint", cfg)
		}
		img, err := cp.NewImage()
		if err != nil {
			t.Fatalf("clone template %+v: %v", cfg, err)
		}
		diff, err := img.Mem.DiffCheckpoint(cp)
		if err != nil {
			t.Fatalf("diff clone against template %+v: %v", cfg, err)
		}
		if len(diff) != 0 {
			t.Fatalf("template %+v mutated: a run leaked %d write regions into shared pages (first at %#x)",
				cfg, len(diff), uint64(diff[0].Addr))
		}
	}
}

// TestTemplatePoolStressIsolation hammers the pool through the full
// serving path: concurrent cache-miss (no_cache) requests for the same
// and different scenarios, across defenses that produce both template
// configurations. Run under -race this doubles as the data-race check
// for the page refcounting; the final assertion proves no request's
// writes ever reached a template page.
func TestTemplatePoolStressIsolation(t *testing.T) {
	s := New(Config{Workers: 8, QueueDepth: 256, CacheCapacity: 64, Registry: obs.NewRegistry()})
	defer s.Drain()

	reqs := []struct {
		req Request
		// mayFail marks requests whose chaos overlay is allowed to kill
		// the run (an injected fault is a legitimate degraded outcome);
		// the image is acquired from the pool before any fault can fire,
		// so isolation and hit accounting still apply.
		mayFail bool
	}{
		// Same scenario raced against itself (same template config).
		{req: Request{Scenario: "bss-overflow", NoCache: true}},
		{req: Request{Scenario: "bss-overflow", NoCache: true}},
		// Different scenarios sharing one template config.
		{req: Request{Scenario: "heap-overflow", NoCache: true}},
		{req: Request{Scenario: "stack-ret", NoCache: true}},
		// NX defense flips ExecStack: the second template config.
		{req: Request{Scenario: "bss-overflow", Defense: "nx", NoCache: true}},
		{req: Request{Scenario: "stack-ret", Defense: "nx", NoCache: true}},
		// Chaos overlay: restores run through RestoreDirty on pooled
		// images too, and injected faults exercise the panic path.
		{req: Request{Scenario: "heap-overflow", NoCache: true, Seed: 42, ChaosProb: 0.5}, mayFail: true},
	}

	rounds := 30
	if testing.Short() {
		rounds = 5
	}
	var wg sync.WaitGroup
	var failures atomic.Int64
	for r := 0; r < rounds; r++ {
		for _, rq := range reqs {
			wg.Add(1)
			go func(req Request, mayFail bool) {
				defer wg.Done()
				if _, _, err := s.Handle(context.Background(), req); err != nil && !mayFail {
					failures.Add(1)
					t.Errorf("handle %+v: %v", req, err)
				}
			}(rq.req, rq.mayFail)
		}
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d requests failed", failures.Load())
	}

	pool := s.Pool()
	assertTemplatesPristine(t, pool)

	// Every scenario request went through the pool, and prewarm made
	// even the very first one a hit.
	st := pool.Stats()
	want := uint64(rounds * len(reqs))
	if st.Hits != want {
		t.Fatalf("pool stats = %+v, want %d hits (every request a template clone)", st, want)
	}
	if st.Misses != 0 {
		t.Fatalf("pool stats = %+v, want 0 misses after prewarm", st)
	}
	if st.Templates != len(templateConfigs) {
		t.Fatalf("pool holds %d templates, want %d", st.Templates, len(templateConfigs))
	}
	if got := s.reg.Value(obs.MetricServePool, obs.L("event", "hit")); got != float64(want) {
		t.Fatalf("pool hit metric = %g, want %d", got, want)
	}
}

// TestTemplatePoolRawAcquireRace drives the pool directly (no serving
// stack): concurrent acquires, each mutating its image heavily, with
// interleaved checkpoint/restore cycles — the worst case for page
// refcount races.
func TestTemplatePoolRawAcquireRace(t *testing.T) {
	pool := mem.NewImagePool()
	var wg sync.WaitGroup
	workers := 16
	if testing.Short() {
		workers = 4
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cfg := templateConfigs[w%len(templateConfigs)]
			for i := 0; i < 10; i++ {
				img, _, err := pool.Acquire(cfg)
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				// Scribble over data and stack, checkpoint, scribble
				// again, roll back.
				data := img.Data.Base
				if err := img.Mem.Memset(data, byte(w), img.Data.Size()); err != nil {
					t.Errorf("memset: %v", err)
					return
				}
				cp := img.Mem.CowCheckpoint()
				if err := img.Mem.Memset(data, byte(i), img.Data.Size()); err != nil {
					t.Errorf("memset2: %v", err)
					return
				}
				if _, err := img.Mem.RestoreDirty(cp); err != nil {
					t.Errorf("restore: %v", err)
					return
				}
				b, err := img.Mem.Read(data, 1)
				if err != nil || b[0] != byte(w) {
					t.Errorf("worker %d: restored byte = %v (%v), want %#x", w, b, err, byte(w))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	assertTemplatesPristine(t, pool)
	st := pool.Stats()
	if st.Hits+st.Misses != uint64(workers*10) {
		t.Fatalf("stats = %+v, want %d total acquisitions", st, workers*10)
	}
}
