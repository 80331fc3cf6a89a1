package mem

// GuardRegion is a poisoned byte range: any simulated write that touches
// it faults *before* modifying memory — the ASan-style red-zone semantics
// the memguard defense installs after each placement. Loader writes
// (Poke) bypass guards, as compiler-emitted red zones would.
type GuardRegion struct {
	Name  string
	Start Addr
	Size  uint64

	removed bool
}

// End returns the first address past the guard.
func (g *GuardRegion) End() Addr { return g.Start.Add(int64(g.Size)) }

// Guard poisons [start, start+n). Overlapping guards are permitted; the
// first installed match reports the violation.
func (m *Memory) Guard(name string, start Addr, n uint64) *GuardRegion {
	g := &GuardRegion{Name: name, Start: start, Size: n}
	m.guards = append(m.guards, g)
	return g
}

// Unguard removes a guard region. Removing twice is a no-op.
func (m *Memory) Unguard(g *GuardRegion) {
	if g == nil || g.removed {
		return
	}
	g.removed = true
	for i, x := range m.guards {
		if x == g {
			m.guards = append(m.guards[:i], m.guards[i+1:]...)
			return
		}
	}
}

// checkGuards reports a fault if [addr, addr+n) enters any guard region.
func (m *Memory) checkGuards(addr Addr, n uint64) *Fault {
	if len(m.guards) == 0 {
		return nil
	}
	end := addr.Add(int64(n))
	for _, g := range m.guards {
		if g.removed || g.Size == 0 {
			continue
		}
		if addr < g.End() && g.Start < end {
			return &Fault{Kind: FaultGuard, Addr: addr, Size: n, Guard: g.Name}
		}
	}
	return nil
}
