// Package machine composes the substrates (mem, heap, stackm, layout,
// vtab, core) into a simulated victim process. A Process owns a mapped
// address space, a formatted heap, a call stack with optional StackGuard
// canaries, a registry of "text" functions, emitted vtables in rodata, and
// global variables in data/bss.
//
// Crucially, it models what happens when control flow is hijacked: a
// corrupted return address or vtable pointer is *dispatched* — onto a
// registered function (arc injection, §3.6.2), onto attacker bytes in a
// writable segment (code injection, subject to NX), or into garbage (a
// crash). Every step is recorded as an Event so experiments can assert on
// outcomes rather than on incidental state.
package machine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/layout"
	"repro/internal/mem"
	"repro/internal/shadow"
	"repro/internal/stackm"
)

// Options configures a Process. The zero value models the paper's
// testbed defaults: ILP32 i386 layout, saved frame pointers, no canary,
// non-executable stack, no shadow stack.
type Options struct {
	// Model is the data model; zero selects layout.ILP32i386 (the paper's
	// 32-bit gcc testbed).
	Model layout.Model
	// NoSaveFP omits the saved-frame-pointer slot (the paper's "if the
	// frame pointer is saved" variant is the default, as with gcc -O0).
	NoSaveFP bool
	// StackGuard enables the gcc ProPolice/StackGuard canary (§3.6.1).
	StackGuard bool
	// CanaryValue overrides the canary; zero selects the terminator canary.
	CanaryValue uint64
	// ExecStack maps the stack executable, enabling classic code injection.
	ExecStack bool
	// ShadowStack enables the §5.2 return-address-stack defense: return
	// addresses are duplicated in protected storage and verified before
	// any transfer.
	ShadowStack bool
	// Shadow arms the byte-granular shadow-memory sanitizer (see
	// internal/shadow): trailing red zones around placement arenas,
	// poisoned vtable-pointer slots, stack control words, and heap
	// metadata, plus quarantine of freed/released memory. Every
	// program write is validated before it lands; a violation aborts
	// the simulated process with EvShadowViolation.
	Shadow bool
	// Image overrides segment sizes.
	Image mem.ImageConfig
	// Pool, when non-nil, sources the process's address space from the
	// image template pool: the first construction for a given image
	// configuration registers a pristine template, and later
	// constructions clone it via copy-on-write page sharing instead of
	// allocating and zeroing fresh segments. Cloned processes are fully
	// isolated — their writes copy shared pages before mutating them.
	Pool *mem.ImagePool
	// OnImage, when non-nil, observes the process's address-space image
	// immediately after acquisition and before any construction write
	// (heap formatting, stack setup, canary install). It is the seam
	// the scenario compiler's recorder (internal/compile) uses to
	// attach write instrumentation early enough to capture the full
	// from-pristine write set; defense.Config.OnProcess fires too late
	// for that, after construction has already stored.
	OnImage func(*mem.Image)
}

func (o Options) model() layout.Model {
	if o.Model.PtrSize == 0 {
		return layout.ILP32i386
	}
	return o.Model
}

// Process is a simulated victim process.
type Process struct {
	Model layout.Model
	Img   *mem.Image
	Mem   *mem.Memory
	Heap  *heap.Allocator
	Stack *stackm.Stack
	// Tracker is the placement-new ledger used by leak experiments.
	Tracker *core.LeakTracker

	opts Options

	funcs    map[string]*Func
	funcAt   map[mem.Addr]*Func
	textCur  mem.Addr
	roCur    mem.Addr
	dataCur  mem.Addr
	bssCur   mem.Addr
	globals  []*Global
	globalBy map[string]*Global
	vtables  map[*layout.Class][]mem.Addr
	vtAddrs  map[mem.Addr]bool // every emitted table address
	shadow   []mem.Addr        // the §5.2 return-address shadow *stack*
	// san is the byte-granular shadow-memory *sanitizer*, non-nil only
	// when Options.Shadow is set (distinct from the shadow stack above).
	san *shadow.Sanitizer

	events []Event
	input  *Input
	output []string

	// onEvent, when non-nil, observes every recorded event as it
	// happens (the observability seam; see SetEventObserver).
	onEvent func(Event)
}

// New creates a process with a formatted heap and an empty call stack.
func New(opts Options) (*Process, error) {
	model := opts.model()
	cfg := opts.Image
	cfg.ExecStack = opts.ExecStack
	var img *mem.Image
	var err error
	if opts.Pool != nil {
		img, _, err = opts.Pool.Acquire(cfg)
	} else {
		img, err = mem.NewProcessImage(cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	if opts.OnImage != nil {
		opts.OnImage(img)
	}
	h, err := heap.NewOnImage(img)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	st, err := stackm.NewOnImage(img, stackm.Options{
		Model:       model,
		SaveFP:      !opts.NoSaveFP,
		Canary:      opts.StackGuard,
		CanaryValue: opts.CanaryValue,
	})
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	// Keep argv/environment headroom above the outermost frame, as a real
	// process image does: overflows of the first frame's locals land in
	// mapped memory rather than off the end of the stack segment.
	if err := st.Reserve(256); err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	p := &Process{
		Model:    model,
		Img:      img,
		Mem:      img.Mem,
		Heap:     h,
		Stack:    st,
		Tracker:  core.NewLeakTracker(),
		opts:     opts,
		funcs:    make(map[string]*Func),
		funcAt:   make(map[mem.Addr]*Func),
		textCur:  img.Text.Base.Add(0x100),
		roCur:    img.ROData.Base,
		dataCur:  img.Data.Base,
		bssCur:   img.BSS.Base,
		globalBy: make(map[string]*Global),
		vtables:  make(map[*layout.Class][]mem.Addr),
		vtAddrs:  make(map[mem.Addr]bool),
		input:    &Input{},
	}
	if opts.Shadow {
		p.san = shadow.New()
		p.Mem.SetShadow(p.san)
		// The heap was formatted before the sanitizer existed; SetShadow
		// walks the existing headers and poisons them as metadata.
		if err := h.SetShadow(heapShadow{p.san}); err != nil {
			return nil, fmt.Errorf("machine: %w", err)
		}
	}
	return p, nil
}

// Sanitizer returns the shadow-memory sanitizer, or nil when the
// process was built without Options.Shadow.
func (p *Process) Sanitizer() *shadow.Sanitizer { return p.san }

// Options returns the options the process was built with.
func (p *Process) Options() Options { return p.opts }

// Checkpoint captures the process's full address-space image — segment
// bytes and permissions — by deep copy. Prefer CowCheckpoint on hot
// paths; this remains for callers that want capture cost paid eagerly.
func (p *Process) Checkpoint() *mem.Checkpoint { return p.Mem.Checkpoint() }

// CowCheckpoint captures the process's full address-space image by
// copy-on-write page sharing: O(pages) pointer operations at capture,
// with copies deferred to the pages the run actually dirties. The
// supervisor layer checkpoints a process right after construction so a
// chaos-faulted run can be rolled back to its pristine pre-run state in
// O(dirty pages).
func (p *Process) CowCheckpoint() *mem.Checkpoint { return p.Mem.CowCheckpoint() }

// RestoreCheckpoint rolls the address space back to cp and records an
// EvRestore event. Only the pages that differ from the checkpoint are
// touched (O(dirty), not O(address space)). Only memory is rolled back:
// the event log, program output, and pending input survive, the same
// way a core-dump-and-restart preserves the testbed's logs while
// resetting the process.
func (p *Process) RestoreCheckpoint(cp *mem.Checkpoint) error {
	if _, err := p.Mem.RestoreDirty(cp); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	p.record(EvRestore, 0, "address space restored from checkpoint (%d segments, %d bytes)",
		cp.NumSegments(), cp.Bytes())
	return nil
}

// --- Events --------------------------------------------------------------

// EventKind classifies process events.
type EventKind int

// Event kinds recorded during simulation.
const (
	EvCall EventKind = iota + 1
	EvReturn
	EvHijackedReturn
	EvArcInjection
	EvPrivilegedCall
	EvCodeInjection
	EvSegfault
	EvNXViolation
	EvCanaryAbort
	EvShadowAbort
	EvVirtualCall
	EvVTableHijack
	EvMethodCall
	EvGuardAbort
	EvOutput
	EvRestore
	EvShadowViolation
)

var eventNames = map[EventKind]string{
	EvCall: "call", EvReturn: "return", EvHijackedReturn: "hijacked-return",
	EvArcInjection: "arc-injection", EvPrivilegedCall: "privileged-call",
	EvCodeInjection: "code-injection", EvSegfault: "segfault",
	EvNXViolation: "nx-violation", EvCanaryAbort: "canary-abort",
	EvShadowAbort: "shadow-abort", EvVirtualCall: "virtual-call",
	EvVTableHijack: "vtable-hijack", EvMethodCall: "method-call",
	EvGuardAbort: "guard-abort", EvOutput: "output", EvRestore: "restore",
	EvShadowViolation: "shadow-violation",
}

// String returns the event kind name.
func (k EventKind) String() string {
	if s, ok := eventNames[k]; ok {
		return s
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one recorded process event.
type Event struct {
	Kind   EventKind
	Detail string
	Addr   mem.Addr
}

func (p *Process) record(k EventKind, addr mem.Addr, format string, args ...any) {
	e := Event{Kind: k, Detail: fmt.Sprintf(format, args...), Addr: addr}
	p.events = append(p.events, e)
	if p.onEvent != nil {
		p.onEvent(e)
	}
}

// SetEventObserver installs fn to observe every event as it is
// recorded — the live counterpart of the Events() post-mortem log,
// used by the obs layer to convert hijacks, aborts, and dispatches
// into trace events and defense-verdict metrics as they happen. Pass
// nil to disarm. A nil observer costs one pointer check per event.
func (p *Process) SetEventObserver(fn func(Event)) { p.onEvent = fn }

// Events returns all recorded events in order.
func (p *Process) Events() []Event {
	out := make([]Event, len(p.events))
	copy(out, p.events)
	return out
}

// EventsOf returns the recorded events of one kind, in order.
func (p *Process) EventsOf(k EventKind) []Event {
	var out []Event
	for _, e := range p.events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// HasEvent reports whether an event of kind k was recorded.
func (p *Process) HasEvent(k EventKind) bool { return len(p.EventsOf(k)) > 0 }

// AbortError reports that the simulated process terminated abnormally —
// the analogue of SIGSEGV/SIGABRT on the paper's testbed.
type AbortError struct {
	Kind   EventKind
	Reason string
}

// Error implements the error interface.
func (e *AbortError) Error() string {
	return fmt.Sprintf("machine: process aborted (%s): %s", e.Kind, e.Reason)
}

// --- Program I/O ----------------------------------------------------------

// Input is the attacker-controlled input stream (cin in the listings).
type Input struct {
	ints []int64
	strs []string
}

// SetInput replaces the pending integer inputs.
func (p *Process) SetInput(vals ...int64) { p.input.ints = append([]int64(nil), vals...) }

// SetStringInput replaces the pending string inputs.
func (p *Process) SetStringInput(vals ...string) { p.input.strs = append([]string(nil), vals...) }

// Cin pops the next integer input, like `cin >> x`. Exhausted input reads
// zero, as a failed istream extraction leaves a value-initialised target.
func (p *Process) Cin() int64 {
	if len(p.input.ints) == 0 {
		return 0
	}
	v := p.input.ints[0]
	p.input.ints = p.input.ints[1:]
	return v
}

// CinString pops the next string input.
func (p *Process) CinString() string {
	if len(p.input.strs) == 0 {
		return ""
	}
	v := p.input.strs[0]
	p.input.strs = p.input.strs[1:]
	return v
}

// Printf records program output (cout in the listings).
func (p *Process) Printf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	p.output = append(p.output, line)
	p.record(EvOutput, 0, "%s", line)
}

// OutputLines returns everything the program printed.
func (p *Process) OutputLines() []string {
	out := make([]string, len(p.output))
	copy(out, p.output)
	return out
}
