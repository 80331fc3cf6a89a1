// Package heap implements a first-fit free-list allocator over the
// simulated heap segment. Block headers are stored inside simulated memory
// itself, so a heap overflow can corrupt allocator metadata exactly as it
// does on a real libc heap (§3.5.1); CheckIntegrity exposes that damage.
//
// The allocator also keeps the ledger the §4.5 memory-leak experiment
// needs: bytes allocated versus freed, live blocks, and per-tag
// attribution.
package heap

import (
	"fmt"

	"repro/internal/mem"
)

const (
	headerSize = 8
	// Payloads and block sizes are multiples of this; payload addresses
	// are 8-aligned so any simulated type can live in any block.
	blockAlign = 8
	minPayload = 8

	magicAlloc uint16 = 0xA110
	magicFree  uint16 = 0xF4EE
)

// Stats is the allocator ledger.
type Stats struct {
	Allocs         uint64
	Frees          uint64
	BytesAllocated uint64
	BytesFreed     uint64
	// InUse is BytesAllocated - BytesFreed: the §4.5 leak metric.
	InUse      uint64
	LiveBlocks uint64
}

// Block describes one live allocation.
type Block struct {
	Payload mem.Addr
	Size    uint64
	Tag     string
}

// Allocator is a first-fit free-list allocator. It is not safe for
// concurrent use; simulated processes are single-threaded.
type Allocator struct {
	m     *mem.Memory
	base  mem.Addr // first header
	limit mem.Addr // first address past the arena
	stats Stats
	tags  map[mem.Addr]string

	redZone bool
	// zones maps live payloads to the caller-requested size, locating the
	// red-zone bytes at payload+requested.
	zones map[mem.Addr]uint64

	// sh, when non-nil, is the shadow-memory sanitizer's view of the
	// heap (see SetShadow).
	sh Shadow
}

// Shadow is the seam through which a byte-granular shadow-memory
// sanitizer (see internal/shadow) cooperates with the allocator. The
// allocator's own metadata writes run under Exempt (they are the
// allocator's business, not the program's), every header is re-poisoned
// after it is written so a program write that tramples it faults at the
// offending store (§3.5.1 at detection time), allocated payloads are
// unpoisoned (address reuse after a free must not inherit quarantine),
// and freed payloads are quarantined (use-after-free writes fault).
type Shadow interface {
	// Exempt runs f with shadow write-checking suspended.
	Exempt(f func() error) error
	// OnAlloc reports that [payload, payload+n) was handed to the
	// program; the sanitizer makes it addressable.
	OnAlloc(payload mem.Addr, n uint64)
	// OnFree reports that [payload, payload+n) was released; the
	// sanitizer quarantines it.
	OnFree(payload mem.Addr, n uint64)
	// PoisonHeader marks [h, h+n) as allocator metadata.
	PoisonHeader(h mem.Addr, n uint64)
}

// SetShadow attaches the sanitizer seam and poisons every block header
// already present (the heap is formatted before a sanitizer can be
// attached). Pass nil to detach.
func (a *Allocator) SetShadow(sh Shadow) error {
	a.sh = sh
	if sh == nil {
		return nil
	}
	for h := a.base; h < a.limit; {
		payload, magic, err := a.readHeader(h)
		if err != nil {
			return err
		}
		if magic != magicAlloc && magic != magicFree {
			return &CorruptError{At: h}
		}
		sh.PoisonHeader(h, headerSize)
		h = h.Add(int64(headerSize + payload))
	}
	return nil
}

const redZoneSize = 4

var redZonePattern = [redZoneSize]byte{0xFD, 0xFD, 0xFD, 0xFD}

// EnableRedZones makes subsequent allocations carry a guard pattern
// immediately after the requested bytes, verified on Free and by
// CheckRedZones — the hardened-allocator defense a modern malloc
// implements, which the §3.5.1 heap overflow tramples.
func (a *Allocator) EnableRedZones() { a.redZone = true }

// RedZonesEnabled reports whether allocations carry guard patterns —
// the observable half of the heapguard defense knob, so configuration
// tests can assert the catalog actually arms what it names.
func (a *Allocator) RedZonesEnabled() bool { return a.redZone }

// RedZoneError reports a trampled allocation guard.
type RedZoneError struct {
	Payload mem.Addr
	Found   [redZoneSize]byte
}

// Error implements the error interface.
func (e *RedZoneError) Error() string {
	return fmt.Sprintf("heap: red zone after block %#x trampled (found % x)", uint64(e.Payload), e.Found)
}

// New formats [base, base+size) as a single free block and returns the
// allocator. size must hold at least one minimal block.
func New(m *mem.Memory, base mem.Addr, size uint64) (*Allocator, error) {
	if m == nil {
		return nil, fmt.Errorf("heap: nil memory")
	}
	size -= size % blockAlign
	if size < headerSize+minPayload {
		return nil, fmt.Errorf("heap: arena size %d too small", size)
	}
	if err := m.CheckRange(base, size, mem.PermRW); err != nil {
		return nil, fmt.Errorf("heap: arena not mapped read-write: %w", err)
	}
	a := &Allocator{
		m: m, base: base, limit: base.Add(int64(size)),
		tags:  make(map[mem.Addr]string),
		zones: make(map[mem.Addr]uint64),
	}
	if err := a.writeHeader(base, size-headerSize, magicFree); err != nil {
		return nil, err
	}
	return a, nil
}

// NewOnImage formats the entire heap segment of img.
func NewOnImage(img *mem.Image) (*Allocator, error) {
	return New(img.Mem, img.Heap.Base, img.Heap.Size())
}

// header encoding: [payloadSize uint32][magic uint16][reserved uint16]
func (a *Allocator) writeHeader(h mem.Addr, payload uint64, magic uint16) error {
	if a.sh == nil {
		return a.storeHeader(h, payload, magic)
	}
	// The allocator's own metadata stores are exempt from shadow
	// checking; the header is re-poisoned immediately after, so the
	// next *program* write into it faults. The closure is built only
	// here, so an unsanitized heap walk does not allocate.
	if err := a.sh.Exempt(func() error { return a.storeHeader(h, payload, magic) }); err != nil {
		return err
	}
	a.sh.PoisonHeader(h, headerSize)
	return nil
}

func (a *Allocator) storeHeader(h mem.Addr, payload uint64, magic uint16) error {
	if err := a.m.WriteU32(h, uint32(payload)); err != nil {
		return err
	}
	return a.m.WriteU16(h.Add(4), magic)
}

func (a *Allocator) readHeader(h mem.Addr) (payload uint64, magic uint16, err error) {
	p, err := a.m.ReadU32(h)
	if err != nil {
		return 0, 0, err
	}
	mg, err := a.m.ReadU16(h.Add(4))
	if err != nil {
		return 0, 0, err
	}
	return uint64(p), mg, nil
}

// roundPayload rounds a request up to the block granularity.
func roundPayload(n uint64) uint64 {
	if n < minPayload {
		n = minPayload
	}
	return (n + blockAlign - 1) &^ (blockAlign - 1)
}

// Alloc returns the address of a payload of at least n bytes.
func (a *Allocator) Alloc(n uint64) (mem.Addr, error) {
	return a.AllocTagged(n, "")
}

// AllocTagged is Alloc with a tag recorded for leak attribution.
func (a *Allocator) AllocTagged(n uint64, tag string) (mem.Addr, error) {
	want := roundPayload(n)
	if a.redZone {
		want = roundPayload(n + redZoneSize)
	}
	for h := a.base; h < a.limit; {
		payload, magic, err := a.readHeader(h)
		if err != nil {
			return 0, fmt.Errorf("heap: walking free list: %w", err)
		}
		if magic != magicAlloc && magic != magicFree {
			return 0, &CorruptError{At: h}
		}
		if magic == magicFree && payload >= want {
			// Split if the remainder can hold another block.
			rest := payload - want
			if rest >= headerSize+minPayload {
				if err := a.writeHeader(h, want, magicAlloc); err != nil {
					return 0, err
				}
				next := h.Add(int64(headerSize + want))
				if err := a.writeHeader(next, rest-headerSize, magicFree); err != nil {
					return 0, err
				}
			} else {
				want = payload
				if err := a.writeHeader(h, payload, magicAlloc); err != nil {
					return 0, err
				}
			}
			p := h.Add(headerSize)
			a.stats.Allocs++
			a.stats.BytesAllocated += want
			a.stats.InUse += want
			a.stats.LiveBlocks++
			if tag != "" {
				a.tags[p] = tag
			}
			if a.sh != nil {
				a.sh.OnAlloc(p, want)
			}
			if a.redZone {
				if err := a.m.Write(p.Add(int64(n)), redZonePattern[:]); err != nil {
					return 0, err
				}
				a.zones[p] = n
			}
			return p, nil
		}
		h = h.Add(int64(headerSize + payload))
	}
	return 0, &OOMError{Requested: n}
}

// Free releases the block whose payload starts at p. It detects invalid
// pointers, double frees, and header corruption, and coalesces the block
// with free neighbours.
func (a *Allocator) Free(p mem.Addr) error {
	h := p.Add(-headerSize)
	if h < a.base || h >= a.limit {
		return fmt.Errorf("heap: free of %#x: outside arena", uint64(p))
	}
	payload, magic, err := a.readHeader(h)
	if err != nil {
		return err
	}
	switch magic {
	case magicFree:
		return fmt.Errorf("heap: double free of %#x", uint64(p))
	case magicAlloc:
	default:
		return &CorruptError{At: h}
	}
	if err := a.checkZone(p); err != nil {
		return err // hardened free refuses; the process would abort
	}
	delete(a.zones, p)
	if err := a.writeHeader(h, payload, magicFree); err != nil {
		return err
	}
	a.stats.Frees++
	a.stats.BytesFreed += payload
	a.stats.InUse -= payload
	a.stats.LiveBlocks--
	delete(a.tags, p)
	if a.sh != nil {
		a.sh.OnFree(p, payload)
	}
	return a.coalesce()
}

// coalesce merges adjacent free blocks across the whole arena. Like an
// unhardened libc it does not *validate* the heap on this path: an
// unrecognisable header (e.g. trampled by the §3.5.1 overflow) simply
// stops the merge walk — strict validation is CheckIntegrity's job, and
// red zones are the hardened allocator's detection point.
func (a *Allocator) coalesce() error {
	h := a.base
	for h < a.limit {
		payload, magic, err := a.readHeader(h)
		if err != nil {
			return err
		}
		if magic != magicAlloc && magic != magicFree {
			return nil // corrupted region: cannot walk further safely
		}
		next := h.Add(int64(headerSize + payload))
		if magic == magicFree && next < a.limit {
			npayload, nmagic, err := a.readHeader(next)
			if err != nil {
				return nil // ran off the walkable region
			}
			if nmagic == magicFree {
				if err := a.writeHeader(h, payload+headerSize+npayload, magicFree); err != nil {
					return err
				}
				continue // re-examine h: further merging possible
			}
		}
		h = next
	}
	return nil
}

// SizeOf returns the payload size of the allocated block at p.
func (a *Allocator) SizeOf(p mem.Addr) (uint64, error) {
	h := p.Add(-headerSize)
	if h < a.base || h >= a.limit {
		return 0, fmt.Errorf("heap: %#x outside arena", uint64(p))
	}
	payload, magic, err := a.readHeader(h)
	if err != nil {
		return 0, err
	}
	if magic != magicAlloc {
		return 0, fmt.Errorf("heap: %#x is not an allocated block", uint64(p))
	}
	return payload, nil
}

// BlockAt finds the live allocation containing addr, if any. This is the
// arena-inference primitive the RuntimeGuard defense (§5.2 libsafe
// discussion) uses to bound a placement at a heap address.
func (a *Allocator) BlockAt(addr mem.Addr) (Block, bool) {
	for h := a.base; h < a.limit; {
		payload, magic, err := a.readHeader(h)
		if err != nil || (magic != magicAlloc && magic != magicFree) {
			return Block{}, false // corrupt heap: refuse to infer
		}
		p := h.Add(headerSize)
		end := p.Add(int64(payload))
		if magic == magicAlloc && addr >= p && addr < end {
			return Block{Payload: p, Size: payload, Tag: a.tags[p]}, true
		}
		h = end
	}
	return Block{}, false
}

// Stats returns the current ledger.
func (a *Allocator) Stats() Stats { return a.stats }

// LiveBlocks enumerates all currently allocated blocks in address order.
func (a *Allocator) LiveBlocks() ([]Block, error) {
	var out []Block
	for h := a.base; h < a.limit; {
		payload, magic, err := a.readHeader(h)
		if err != nil {
			return nil, err
		}
		if magic != magicAlloc && magic != magicFree {
			return nil, &CorruptError{At: h}
		}
		if magic == magicAlloc {
			p := h.Add(headerSize)
			out = append(out, Block{Payload: p, Size: payload, Tag: a.tags[p]})
		}
		h = h.Add(int64(headerSize + payload))
	}
	return out, nil
}

// CheckIntegrity walks every block header and reports corruption — the
// detection a hardened allocator would perform after a heap overflow has
// trampled metadata.
func (a *Allocator) CheckIntegrity() error {
	h := a.base
	for h < a.limit {
		payload, magic, err := a.readHeader(h)
		if err != nil {
			return err
		}
		if magic != magicAlloc && magic != magicFree {
			return &CorruptError{At: h}
		}
		next := h.Add(int64(headerSize + payload))
		if next <= h || next > a.limit {
			return &CorruptError{At: h}
		}
		h = next
	}
	return nil
}

// checkZone verifies the red zone of one live payload, when present.
func (a *Allocator) checkZone(p mem.Addr) error {
	n, ok := a.zones[p]
	if !ok {
		return nil
	}
	b, err := a.m.Read(p.Add(int64(n)), redZoneSize)
	if err != nil {
		return err
	}
	var found [redZoneSize]byte
	copy(found[:], b)
	if found != redZonePattern {
		return &RedZoneError{Payload: p, Found: found}
	}
	return nil
}

// CheckRedZones verifies the guard pattern of every live allocation.
func (a *Allocator) CheckRedZones() error {
	for p := range a.zones {
		if err := a.checkZone(p); err != nil {
			return err
		}
	}
	return nil
}

// OOMError reports arena exhaustion.
type OOMError struct{ Requested uint64 }

// Error implements the error interface.
func (e *OOMError) Error() string {
	return fmt.Sprintf("heap: out of memory allocating %d bytes", e.Requested)
}

// CorruptError reports a trampled block header.
type CorruptError struct{ At mem.Addr }

// Error implements the error interface.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("heap: corrupt block header at %#x", uint64(e.At))
}
