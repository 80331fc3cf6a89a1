// Package chaos implements a deterministic, seed-driven fault injector
// for the simulated address space. It hooks into mem.Memory's checked
// read/write path via the mem.AccessHook seam and perturbs otherwise
// healthy accesses with the transient faults a real machine suffers
// under adversity: flipped bits, dropped stores, torn (partial) writes,
// spurious permission faults, and pages that vanish mid-run.
//
// Determinism is the contract that makes chaos usable as an experiment
// rather than a fuzzer: an Injector built from the same Config observes
// the same access sequence (the simulated process is single-threaded)
// and therefore injects byte-identical faults at the same access
// numbers. Campaigns derive per-job seeds with DeriveSeed so every
// (run, scenario, defense) cell gets an independent but reproducible
// fault schedule.
package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/mem"
)

// Kind enumerates the injectable fault classes.
type Kind int

// Injectable fault kinds.
const (
	// KindBitFlip flips one random bit of the access payload: on a
	// write the corrupted bytes are stored; on a read the program sees
	// corrupted bytes while memory is untouched.
	KindBitFlip Kind = iota + 1
	// KindDropWrite silently discards a store while reporting success.
	KindDropWrite
	// KindTornWrite commits only a prefix of a multi-byte store — the
	// classic partial write of an interrupted instruction sequence.
	// Single-byte stores cannot tear and degrade to a dropped write.
	KindTornWrite
	// KindPermFault raises a one-shot spurious permission fault; the
	// access, if retried, goes through.
	KindPermFault
	// KindUnmapPage unmaps the page containing the access on demand:
	// this access and every later access touching the page fault with
	// mem.FaultUnmapped until the injector is reset.
	KindUnmapPage
)

var kindNames = map[Kind]string{
	KindBitFlip:   "bitflip",
	KindDropWrite: "dropwrite",
	KindTornWrite: "tornwrite",
	KindPermFault: "permfault",
	KindUnmapPage: "unmap",
}

// String returns the kind's short name, which ParseKinds accepts back.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// AllKinds returns every injectable kind in declaration order.
func AllKinds() []Kind {
	return []Kind{KindBitFlip, KindDropWrite, KindTornWrite, KindPermFault, KindUnmapPage}
}

// ParseKinds parses a comma-separated fault-kind list ("bitflip,unmap");
// "all" or "" selects every kind. Duplicates are collapsed; order is
// normalised to declaration order so the same selection always produces
// the same injector behaviour regardless of how it was spelled.
func ParseKinds(s string) ([]Kind, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return AllKinds(), nil
	}
	byName := map[string]Kind{}
	for k, n := range kindNames {
		byName[n] = k
	}
	// Accept a few natural aliases.
	byName["drop"] = KindDropWrite
	byName["torn"] = KindTornWrite
	byName["perm"] = KindPermFault
	byName["flip"] = KindBitFlip
	seen := map[Kind]bool{}
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		k, ok := byName[name]
		if !ok {
			known := make([]string, 0, len(kindNames))
			for _, n := range kindNames {
				known = append(known, n)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("chaos: unknown fault kind %q (known: %s, or all)", name, strings.Join(known, ","))
		}
		seen[k] = true
	}
	var out []Kind
	for _, k := range AllKinds() {
		if seen[k] {
			out = append(out, k)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("chaos: empty fault kind list %q", s)
	}
	return out, nil
}

// KindNames renders a kind slice as its canonical comma-separated form.
func KindNames(kinds []Kind) string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	return strings.Join(names, ",")
}

// Config parameterises an Injector. The zero value is usable: it
// injects every kind with the default probability from seed 0.
type Config struct {
	// Seed drives the fault schedule; equal seeds yield equal schedules.
	Seed int64
	// Prob is the per-access injection probability in (0,1]; zero
	// selects the default of 0.02.
	Prob float64
	// Kinds restricts the injectable kinds; empty selects all.
	Kinds []Kind
	// MaxFaults bounds the number of injected faults (0 = unlimited).
	// A bounded budget is what lets supervised retries converge: once
	// the budget is spent the injector becomes a pure observer.
	MaxFaults int
	// PanicOnFault delivers injected permission/unmap faults by
	// panicking with the *mem.Fault instead of returning it through the
	// access's error path — the synchronous-signal model: a SIGSEGV
	// does not politely come back as a return value. The supervisor's
	// panic recovery turns it into a structured crash record.
	PanicOnFault bool
	// PageSize is the unmap granularity; zero selects 4096.
	PageSize uint64
	// OnInject, when non-nil, observes every injection as it is
	// recorded — the observability seam through which the obs layer
	// counts faults by kind and emits chaos trace events. The callback
	// is passive: it must not touch the injector or the memory it is
	// armed on, and it does not perturb the deterministic schedule
	// (the RNG is never consulted on its behalf).
	OnInject func(Injection)
}

func (c Config) prob() float64 {
	if c.Prob <= 0 {
		return 0.02
	}
	return c.Prob
}

func (c Config) pageSize() uint64 {
	if c.PageSize == 0 {
		return 4096
	}
	return c.PageSize
}

func (c Config) kinds() []Kind {
	if len(c.Kinds) == 0 {
		return AllKinds()
	}
	return c.Kinds
}

// Injection records one injected fault for the campaign transcript.
// Every field is deterministic under a fixed seed.
type Injection struct {
	// Seq is the injection's ordinal (0-based).
	Seq int `json:"seq"`
	// Access is the 1-based access number at which the fault landed.
	Access int `json:"access"`
	// Op is "read" or "write".
	Op string `json:"op"`
	// Kind is the fault kind's short name.
	Kind string `json:"kind"`
	// Addr is the access address.
	Addr uint64 `json:"addr"`
	// Detail carries kind-specific data (flipped bit, torn length, ...).
	Detail string `json:"detail,omitempty"`
}

// Injector is a deterministic fault injector. It is not safe for
// concurrent use — arm it on one simulated process at a time, which is
// also what keeps the access sequence (and thus the schedule)
// reproducible.
type Injector struct {
	cfg      Config
	rng      *rand.Rand
	accesses int
	injected []Injection
	unmapped map[mem.Addr]bool // page-base set
}

// New builds an injector from cfg.
func New(cfg Config) *Injector {
	return &Injector{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		unmapped: make(map[mem.Addr]bool),
	}
}

// Arm installs the injector's hook on m. Several memories may be armed
// in sequence (e.g. one per supervised retry); the fault schedule
// continues across them, so a retry does not replay the first attempt's
// faults — it lives in the same adverse world, further along.
func (in *Injector) Arm(m *mem.Memory) { m.SetAccessHook(in.Hook()) }

// Disarm removes the injector's hook from m.
func (in *Injector) Disarm(m *mem.Memory) { m.SetAccessHook(nil) }

// Accesses returns how many checked accesses the injector has observed.
func (in *Injector) Accesses() int { return in.accesses }

// Count returns how many faults have been injected.
func (in *Injector) Count() int { return len(in.injected) }

// Injections returns the injected-fault transcript in order.
func (in *Injector) Injections() []Injection {
	out := make([]Injection, len(in.injected))
	copy(out, in.injected)
	return out
}

// Reset forgets unmapped pages and restarts the schedule from the seed.
// The injected-fault transcript and access counter are cleared too, so
// a reset injector is indistinguishable from a freshly built one.
func (in *Injector) Reset() {
	in.rng = rand.New(rand.NewSource(in.cfg.Seed))
	in.accesses = 0
	in.injected = nil
	in.unmapped = make(map[mem.Addr]bool)
}

func (in *Injector) pageOf(addr mem.Addr) mem.Addr {
	ps := in.cfg.pageSize()
	return mem.Addr(uint64(addr) / ps * ps)
}

func (in *Injector) touchesUnmapped(addr mem.Addr, n int) bool {
	if len(in.unmapped) == 0 {
		return false
	}
	ps := in.cfg.pageSize()
	first := in.pageOf(addr)
	last := in.pageOf(addr.Add(int64(maxInt(n, 1) - 1)))
	for p := first; ; p = p.Add(int64(ps)) {
		if in.unmapped[p] {
			return true
		}
		if p == last {
			return false
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// applicable returns the enabled kinds that make sense for the op.
// Reads can suffer bit flips, permission faults, and unmapped pages;
// writes additionally drop and tear.
func (in *Injector) applicable(op mem.AccessKind, n int) []Kind {
	var out []Kind
	for _, k := range in.cfg.kinds() {
		switch k {
		case KindDropWrite, KindTornWrite:
			if op != mem.AccessWrite {
				continue
			}
		}
		out = append(out, k)
	}
	return out
}

// deliver records the injection and returns (or panics with) the fault.
func (in *Injector) deliver(rec Injection, f *mem.Fault) mem.HookDecision {
	in.record(rec)
	if in.cfg.PanicOnFault {
		panic(f)
	}
	return mem.HookDecision{Fault: f}
}

func (in *Injector) record(rec Injection) {
	rec.Seq = len(in.injected)
	rec.Access = in.accesses
	in.injected = append(in.injected, rec)
	if in.cfg.OnInject != nil {
		in.cfg.OnInject(rec)
	}
}

// Hook returns the mem.AccessHook implementing the injector's schedule.
func (in *Injector) Hook() mem.AccessHook {
	return func(op mem.AccessKind, addr mem.Addr, data []byte) mem.HookDecision {
		in.accesses++
		// Pages already unmapped fault on every touch; only the unmap
		// itself was the injection, so consequences are not recorded.
		if in.touchesUnmapped(addr, len(data)) {
			f := &mem.Fault{Kind: mem.FaultUnmapped, Addr: addr, Size: uint64(len(data))}
			if in.cfg.PanicOnFault {
				panic(f)
			}
			return mem.HookDecision{Fault: f}
		}
		if in.cfg.MaxFaults > 0 && len(in.injected) >= in.cfg.MaxFaults {
			return mem.HookDecision{}
		}
		if in.rng.Float64() >= in.cfg.prob() {
			return mem.HookDecision{}
		}
		kinds := in.applicable(op, len(data))
		if len(kinds) == 0 {
			return mem.HookDecision{}
		}
		kind := kinds[in.rng.Intn(len(kinds))]
		rec := Injection{Op: op.String(), Kind: kind.String(), Addr: uint64(addr)}

		switch kind {
		case KindBitFlip:
			if len(data) == 0 {
				return mem.HookDecision{}
			}
			bit := in.rng.Intn(len(data) * 8)
			flipped := append([]byte(nil), data...)
			flipped[bit/8] ^= 1 << (bit % 8)
			rec.Detail = fmt.Sprintf("bit %d", bit)
			in.record(rec)
			return mem.HookDecision{Replace: flipped}

		case KindDropWrite:
			in.record(rec)
			return mem.HookDecision{Drop: true}

		case KindTornWrite:
			if len(data) < 2 {
				// A one-byte store cannot tear; it drops instead.
				rec.Kind = KindDropWrite.String()
				rec.Detail = "degenerate tear"
				in.record(rec)
				return mem.HookDecision{Drop: true}
			}
			cut := 1 + in.rng.Intn(len(data)-1)
			rec.Detail = fmt.Sprintf("%d/%d bytes", cut, len(data))
			in.record(rec)
			return mem.HookDecision{Replace: append([]byte(nil), data[:cut]...)}

		case KindPermFault:
			want := mem.PermRead
			if op == mem.AccessWrite {
				want = mem.PermWrite
			}
			rec.Detail = "transient"
			return in.deliver(rec, &mem.Fault{
				Kind: mem.FaultPerm, Addr: addr, Size: uint64(len(data)), Want: want,
			})

		case KindUnmapPage:
			page := in.pageOf(addr)
			in.unmapped[page] = true
			rec.Detail = fmt.Sprintf("page %#x", uint64(page))
			return in.deliver(rec, &mem.Fault{
				Kind: mem.FaultUnmapped, Addr: addr, Size: uint64(len(data)),
			})
		}
		return mem.HookDecision{}
	}
}

// DeriveSeed maps a base seed plus a label path to an independent,
// reproducible sub-seed via FNV-1a — how campaigns give every
// (run, scenario, defense) job its own schedule.
func DeriveSeed(base int64, labels ...string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", base)
	for _, l := range labels {
		h.Write([]byte{0})
		h.Write([]byte(l))
	}
	return int64(h.Sum64())
}
