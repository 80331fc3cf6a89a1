package service

import (
	"container/list"
	"context"
	"sync"
)

// Cache event tokens reported through the OnEvent seam and echoed in
// responses. They are stable wire/metric values.
const (
	CacheHit       = "hit"       // served from the store
	CacheMiss      = "miss"      // executed; result stored
	CacheCoalesced = "coalesced" // joined an identical in-flight execution
	CacheBypass    = "bypass"    // NoCache request; executed, store refreshed
	CacheCloned    = "cloned"    // miss filled from a cluster peer's cache, not executed
	CacheEvict     = "evict"     // LRU capacity eviction
)

// CacheConfig tunes the result cache. The zero value selects 256
// entries.
type CacheConfig struct {
	// Capacity bounds the number of stored results (default 256).
	Capacity int
	// OnEvent receives one call per cache event with a Cache* token —
	// the metrics seam. It runs under the cache lock: keep it cheap and
	// never call back into the cache.
	OnEvent func(event string)
}

// Cache is a content-addressed result store: bounded LRU plus
// singleflight collapsing so N concurrent requests for the same key
// cost one execution. Entries never expire: a stored Result is a pure
// function of its key, which includes CodeVersion. (E17's wall-clock
// table is the one exception; a NoCache request re-executes it and
// overwrites the entry.) Safe for concurrent use. Results are treated
// as immutable once stored — callers must not mutate them.
type Cache struct {
	cfg CacheConfig

	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recent
	flights map[string]*flight
}

type entry struct {
	key string
	res *Result
}

// flight is one in-progress execution other callers can join.
type flight struct {
	done chan struct{} // closed when the leader finishes
	res  *Result
	err  error
}

// NewCache builds a cache.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 256
	}
	return &Cache{
		cfg:     cfg,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		flights: make(map[string]*flight),
	}
}

func (c *Cache) event(tok string) {
	if c.cfg.OnEvent != nil {
		c.cfg.OnEvent(tok)
	}
}

// Len returns the number of stored entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Keys returns the stored keys from most to least recently used — the
// eviction order, exposed for tests.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.lru.Len())
	for e := c.lru.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*entry).key)
	}
	return out
}

// lookupLocked returns a stored entry's result and marks it most
// recently used.
func (c *Cache) lookupLocked(key string) (*Result, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*entry).res, true
}

func (c *Cache) removeLocked(el *list.Element) {
	c.lru.Remove(el)
	delete(c.entries, el.Value.(*entry).key)
}

// storeLocked inserts (or refreshes) key and evicts past capacity.
func (c *Cache) storeLocked(key string, res *Result) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry).res = res
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&entry{key: key, res: res})
	for c.lru.Len() > c.cfg.Capacity {
		c.removeLocked(c.lru.Back())
		c.event(CacheEvict)
	}
}

// Get returns the stored result for key, if any.
func (c *Cache) Get(key string) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookupLocked(key)
}

// Put stores res under key unconditionally.
func (c *Cache) Put(key string, res *Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.storeLocked(key, res)
}

// Do returns the result for key, executing miss at most once across
// all concurrent callers: the first miss becomes the flight leader and
// runs miss(); callers arriving while it is in flight join the flight
// instead of executing. The returned token is one of CacheHit,
// CacheMiss, or CacheCoalesced.
//
// ctx bounds only the caller's wait: a follower whose context expires
// unblocks with ctx.Err() while the leader's execution (governed by
// its own context) continues for the callers still waiting.
func (c *Cache) Do(ctx context.Context, key string, miss func() (*Result, error)) (*Result, string, error) {
	c.mu.Lock()
	if res, ok := c.lookupLocked(key); ok {
		c.event(CacheHit)
		c.mu.Unlock()
		return res, CacheHit, nil
	}
	if f, ok := c.flights[key]; ok {
		c.event(CacheCoalesced)
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.res, CacheCoalesced, f.err
		case <-ctx.Done():
			return nil, CacheCoalesced, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.event(CacheMiss)
	c.mu.Unlock()

	f.res, f.err = miss()

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil && f.res != nil {
		c.storeLocked(key, f.res)
	}
	c.mu.Unlock()
	close(f.done)
	return f.res, CacheMiss, f.err
}
