package mem

// ShadowChecker is the seam for a byte-granular shadow-memory
// sanitizer (see internal/shadow). When attached, every
// permission-checked Write is validated against it *before* any byte
// lands: a non-nil fault aborts the write with nothing stored, so an
// overflow is reported at the first poisoned byte it would have
// corrupted. Reads are deliberately unchecked — canary verification,
// the information-leak over-reads, and virtual dispatch all read
// poisoned bytes legitimately; the paper's attacks corrupt state by
// writing.
//
// Loader pokes, snapshots, checkpoints, and restores bypass the
// checker, mirroring the AccessHook contract: the sanitizer polices
// the simulated program's own stores, not the harness's machinery.
//
// Snapshot and Restore let checkpoints carry the shadow planes in
// lockstep with the data pages: CowCheckpoint captures an opaque
// snapshot, RestoreDirty reinstates it, so a rollback
// never leaves quarantine or red-zone state disagreeing with the
// bytes it describes.
type ShadowChecker interface {
	// CheckWrite returns nil if the n-byte write at addr is fully
	// addressable, or a *Fault (Kind FaultShadow) naming the first
	// poisoned byte otherwise.
	CheckWrite(addr Addr, n uint64) *Fault
	// Snapshot captures the shadow state as an opaque value.
	Snapshot() any
	// Restore reinstates a state previously captured by Snapshot.
	Restore(any)
}

// SetShadow attaches a shadow checker to the write path. Pass nil to
// disarm. Only one checker is active at a time. A nil checker costs
// one pointer check per write — the same zero-cost-when-disabled
// contract as the observer and hook seams, enforced by
// BenchmarkWriteShadowDisabled.
func (m *Memory) SetShadow(s ShadowChecker) { m.shadow = s }

// Shadow returns the attached shadow checker, or nil.
func (m *Memory) Shadow() ShadowChecker { return m.shadow }
