package mem

// AccessKind distinguishes the two permission-checked access paths an
// AccessHook can observe.
type AccessKind int

// Access kinds delivered to an AccessHook.
const (
	AccessRead AccessKind = iota + 1
	AccessWrite
)

// String returns "read" or "write".
func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	default:
		return "access"
	}
}

// HookDecision tells Memory what to do with an access the hook observed.
// The zero value lets the access proceed unchanged.
type HookDecision struct {
	// Fault, when non-nil, is raised instead of performing the access —
	// the injected analogue of a transient hardware fault.
	Fault *Fault
	// Drop, for writes, silently discards the write while reporting
	// success to the program: a dropped store.
	Drop bool
	// Replace, when non-nil, substitutes the access payload. For writes
	// the replacement bytes are stored instead of the program's bytes; a
	// replacement shorter than the original models a torn (partial)
	// write. For reads the replacement is returned to the program without
	// modifying memory: transient read corruption.
	Replace []byte
}

// AccessHook observes every permission-checked Read and Write after the
// mapping, permission, and guard checks have passed, and may alter the
// access via the returned decision. It is the seam the chaos layer uses
// to inject deterministic faults into an otherwise-healthy run.
//
// For writes, data is a copy of the program's outgoing bytes; for reads
// it is a copy of the bytes about to be returned. Because it is a copy,
// writing into data changes nothing — neither memory, nor the caller's
// buffer, nor the value the program reads; alter the access with
// Replace. The copy is made only while a hook is armed, so the scalar
// accessors stay allocation-free without one. Loader pokes, snapshots,
// checkpoints, and restores bypass the hook: chaos applies to the
// simulated program's own accesses, not to the harness's inspection
// machinery.
type AccessHook func(kind AccessKind, addr Addr, data []byte) HookDecision

// SetAccessHook installs hook on the read/write path. Pass nil to
// disarm. Only one hook is active at a time; installing a hook replaces
// the previous one.
func (m *Memory) SetAccessHook(hook AccessHook) { m.hook = hook }

// AccessObserver passively observes every attempted access that passed
// the mapping and permission checks. Unlike an AccessHook it cannot
// alter the access, and it runs *before* the hook, so it sees the
// access exactly as the program issued it — including writes a chaos
// hook later drops or tears, and writes a guard region faults: the
// observer records intent, which is what the write-density heatmaps
// and per-segment volume metrics want ("where did the attack aim").
//
// The observer seam is independent of the hook seam: the obs layer
// observes while the chaos layer perturbs, on the same Memory, without
// either knowing about the other. A nil observer costs one pointer
// check per access.
type AccessObserver func(kind AccessKind, addr Addr, n uint64)

// SetAccessObserver installs fn as the passive access observer. Pass
// nil to disarm. Only one observer is active at a time.
func (m *Memory) SetAccessObserver(fn AccessObserver) { m.obs = fn }
