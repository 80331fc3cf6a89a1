package mem

import "sync"

// ImagePool is a pool of prewarmed process-image templates. The first
// request for a given ImageConfig builds the canonical image once and
// registers its pristine COW checkpoint as the template; every later
// request clones from the template in O(pages) pointer copies — no
// page allocation, no zeroing, no byte copies. Clones never share
// mutable state: every shared page is unowned and therefore immutable,
// and a clone's first write to any page copies it (see paging.go), so
// concurrent clones are isolated by construction without touching a
// shared word.
//
// The pool is safe for concurrent use; it is the serving layer's
// cache-miss fast path (internal/service wires one pool per Service and
// arms it on every scenario request).
type ImagePool struct {
	// OnEvent, when non-nil, observes pool activity with one of the
	// event tokens "hit", "miss", or "prewarm" — the metrics seam. Set
	// it before the pool is used; it is called outside the pool lock.
	OnEvent func(event string)

	mu        sync.Mutex
	templates map[ImageConfig]*Checkpoint
	hits      uint64
	misses    uint64
}

// PoolStats summarises pool activity.
type PoolStats struct {
	// Hits counts acquisitions served by cloning a template; Misses
	// counts acquisitions that had to construct (and register) one.
	Hits, Misses uint64
	// Templates is the number of distinct image configurations pooled.
	Templates int
}

// NewImagePool returns an empty pool.
func NewImagePool() *ImagePool {
	return &ImagePool{templates: make(map[ImageConfig]*Checkpoint)}
}

// Acquire returns a canonical process image for cfg: a clone of the
// pooled template when one exists (hit=true), otherwise a freshly
// constructed image whose pristine state is registered as the template
// for subsequent calls. Either way the caller owns the returned image
// exclusively; its writes never reach the template or other clones.
func (p *ImagePool) Acquire(cfg ImageConfig) (img *Image, hit bool, err error) {
	key := cfg.withDefaults()
	p.mu.Lock()
	cp := p.templates[key]
	if cp != nil {
		p.hits++
	}
	p.mu.Unlock()

	if cp != nil {
		img, err := cp.NewImage()
		if err != nil {
			return nil, false, err
		}
		p.event("hit")
		return img, true, nil
	}

	// Miss: construct outside the lock (construction is the expensive
	// part), then publish. A racing miss for the same key just loses its
	// template to the winner; both callers still get isolated images.
	img, err = NewProcessImage(key)
	if err != nil {
		return nil, false, err
	}
	p.mu.Lock()
	if _, ok := p.templates[key]; !ok {
		// The returned image shares the new template's pages; its writes
		// COW away from them, leaving the template pristine.
		p.templates[key] = img.Mem.CowCheckpoint()
	}
	p.misses++
	p.mu.Unlock()
	p.event("miss")
	return img, false, nil
}

// Prewarm constructs and registers templates for each config that does
// not already have one, so the first real request is already a hit.
func (p *ImagePool) Prewarm(cfgs ...ImageConfig) error {
	for _, cfg := range cfgs {
		key := cfg.withDefaults()
		p.mu.Lock()
		_, ok := p.templates[key]
		p.mu.Unlock()
		if ok {
			continue
		}
		img, err := NewProcessImage(key)
		if err != nil {
			return err
		}
		cp := img.Mem.CowCheckpoint()
		p.mu.Lock()
		if _, ok := p.templates[key]; !ok {
			p.templates[key] = cp
		}
		p.mu.Unlock()
		p.event("prewarm")
	}
	return nil
}

// Template returns the pooled template checkpoint for cfg, or nil. The
// checkpoint is immutable; tests diff clones against it to assert that
// no run leaked writes into shared pages.
func (p *ImagePool) Template(cfg ImageConfig) *Checkpoint {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.templates[cfg.withDefaults()]
}

// Stats returns a snapshot of pool activity.
func (p *ImagePool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Hits: p.hits, Misses: p.misses, Templates: len(p.templates)}
}

func (p *ImagePool) event(name string) {
	if p.OnEvent != nil {
		p.OnEvent(name)
	}
}
