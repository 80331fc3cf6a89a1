package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func res(key string) *Result { return &Result{Key: key, Status: "ok"} }

// TestSingleflightCollapsesConcurrentMisses is the satellite contract:
// N identical concurrent requests cost exactly one execution.
func TestSingleflightCollapsesConcurrentMisses(t *testing.T) {
	c := NewCache(CacheConfig{Capacity: 8})
	const n = 50
	var executions atomic.Int32
	var wg sync.WaitGroup
	release := make(chan struct{})
	results := make([]*Result, n)
	tokens := make([]string, n)

	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			r, tok, err := c.Do(context.Background(), "k", func() (*Result, error) {
				executions.Add(1)
				<-release // hold the flight open until every goroutine had a chance to join
				return res("k"), nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i], tokens[i] = r, tok
		}(i)
	}
	// Give followers time to join the flight, then let the leader finish.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := executions.Load(); got != 1 {
		t.Fatalf("executions = %d, want exactly 1", got)
	}
	var misses, joined int
	for i := range results {
		if results[i] == nil || results[i].Key != "k" {
			t.Fatalf("caller %d got %+v", i, results[i])
		}
		switch tokens[i] {
		case CacheMiss:
			misses++
		case CacheCoalesced, CacheHit:
			joined++
		default:
			t.Fatalf("caller %d got token %q", i, tokens[i])
		}
	}
	if misses != 1 {
		t.Fatalf("misses = %d, want 1 (joined %d)", misses, joined)
	}
}

// TestSingleflightErrorNotCached: a failed execution is returned to the
// whole flight but never stored.
func TestSingleflightErrorNotCached(t *testing.T) {
	c := NewCache(CacheConfig{})
	boom := fmt.Errorf("boom")
	_, tok, err := c.Do(context.Background(), "k", func() (*Result, error) { return nil, boom })
	if err != boom || tok != CacheMiss {
		t.Fatalf("got (%v, %q), want (boom, miss)", err, tok)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("error result was cached")
	}
}

// TestFollowerContextUnblocks: a follower whose context ends stops
// waiting; the leader's execution is unaffected.
func TestFollowerContextUnblocks(t *testing.T) {
	c := NewCache(CacheConfig{})
	started := make(chan struct{})
	release := make(chan struct{})
	go c.Do(context.Background(), "k", func() (*Result, error) {
		close(started)
		<-release
		return res("k"), nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "k", func() (*Result, error) {
			t.Error("follower executed miss despite in-flight leader")
			return nil, nil
		})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("follower err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("follower did not unblock on context cancellation")
	}
	close(release)
}

// TestLRUEvictionOrder: least-recently-used entries leave first, and
// touching an entry protects it.
func TestLRUEvictionOrder(t *testing.T) {
	events := map[string]int{}
	c := NewCache(CacheConfig{Capacity: 3, OnEvent: func(e string) { events[e]++ }})
	c.Put("a", res("a"))
	c.Put("b", res("b"))
	c.Put("c", res("c"))
	if _, ok := c.Get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing before eviction")
	}
	c.Put("d", res("d")) // evicts b

	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction; want it evicted as LRU")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted; want it retained", k)
		}
	}
	if events[CacheEvict] != 1 {
		t.Fatalf("evict events = %d, want 1", events[CacheEvict])
	}
	// Most-recent-first order after the gets above: d, c, a was touched
	// last... verify exact order via Keys.
	got := c.Keys()
	want := []string{"d", "c", "a"}
	if len(got) != len(want) {
		t.Fatalf("Keys() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys() = %v, want %v", got, want)
		}
	}
}

// TestChaosSeedsNeverShareKeys is the satellite contract: two requests
// differing only in chaos seed have distinct content addresses, while
// chaos-free requests normalize inert seeds away.
func TestChaosSeedsNeverShareKeys(t *testing.T) {
	k1, err := Key(Request{Scenario: "bss-overflow", ChaosProb: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Key(Request{Scenario: "bss-overflow", ChaosProb: 0.01, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatal("different chaos seeds produced the same cache key")
	}
	// Same seed, same config: stable address.
	k1b, err := Key(Request{Scenario: "bss-overflow", ChaosProb: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k1b {
		t.Fatal("identical requests produced different cache keys")
	}
	// Without injection the seed is inert and must not fragment the cache.
	q1, err := Key(Request{Scenario: "bss-overflow", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Key(Request{Scenario: "bss-overflow", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Fatal("inert seeds fragmented the chaos-free cache key")
	}
	// Different probabilities are different workloads.
	p, err := Key(Request{Scenario: "bss-overflow", ChaosProb: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p == k1 {
		t.Fatal("different chaos probabilities shared a cache key")
	}
}
