package compile

import (
	"container/list"
	"errors"
	"sync"

	"repro/internal/attack"
	"repro/internal/defense"
)

// Cache is the compiled-program cache: one ScenarioProgram per
// (scenario, defense, model) specialization, keyed by Key. It
// singleflights compilation (concurrent requests for one key share one
// recording run), bounds residency with LRU eviction, and negatively
// caches ErrNotCompilable so uncompilable keys are probed once, not
// per request.
//
// Eviction is safe against in-flight executions: Programs are
// immutable and executions hold their own references, so an entry can
// be evicted (or the cache rebalanced) while its program is mid-replay
// elsewhere.
type Cache struct {
	mu        sync.Mutex
	capacity  int
	entries   map[string]*centry
	lru       *list.List // of *centry, front = most recent
	hits      uint64
	misses    uint64
	evictions uint64
}

type centry struct {
	key   string
	ready chan struct{}
	sp    *ScenarioProgram
	err   error
	elem  *list.Element
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Len       int
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// NewCache returns a cache bounded to capacity entries (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		entries:  make(map[string]*centry),
		lru:      list.New(),
	}
}

// Get returns the compiled program for the scenario under cfg,
// compiling (once, however many callers race) on first use. It
// propagates ErrNotCompilable from cached negative entries.
func (c *Cache) Get(s attack.Scenario, cfg defense.Config) (*ScenarioProgram, error) {
	key := Key(s.ID, cfg)
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		c.hits++
		c.mu.Unlock()
		<-e.ready
		return e.sp, e.err
	}
	e := &centry{key: key, ready: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	// Compile outside the lock: the ready channel is the singleflight
	// barrier for everyone who found the entry above.
	e.sp, e.err = CompileScenario(s, cfg)
	close(e.ready)

	c.mu.Lock()
	if e.err != nil && !errors.Is(e.err, ErrNotCompilable) {
		// Infrastructure failures are not worth pinning: drop the
		// entry so a later request retries. Not-compilable stays as a
		// negative entry — it is a property of the key.
		c.remove(e)
	}
	for c.lru.Len() > c.capacity {
		c.remove(c.lru.Back().Value.(*centry))
		c.evictions++
	}
	c.mu.Unlock()
	return e.sp, e.err
}

// remove drops an entry; callers hold c.mu. Removing an entry that was
// already removed (error-drop racing eviction) is a no-op.
func (c *Cache) remove(e *centry) {
	if _, ok := c.entries[e.key]; !ok {
		return
	}
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
}

// Evict drops up to n least-recently-used entries and reports how many
// were dropped. Only tests call it, to evict entries while replays are
// in flight.
func (c *Cache) Evict(n int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for dropped < n && c.lru.Len() > 0 {
		c.remove(c.lru.Back().Value.(*centry))
		c.evictions++
		dropped++
	}
	return dropped
}

// Len returns the resident entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns a counter snapshot.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Len: c.lru.Len(), Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}
