package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// MemberState is one worker's health classification.
type MemberState string

// Member states. Only healthy members are on the ring.
const (
	// StateHealthy: serving; on the ring.
	StateHealthy MemberState = "healthy"
	// StateUnhealthy: ejected after missed heartbeats or a forward
	// failure; probed for re-admission.
	StateUnhealthy MemberState = "unhealthy"
	// StateDraining: announced a graceful drain via /readyz; ejected so
	// new work routes to its successors, but still answers /cache/{key}
	// reads, so its shard migrates by cloning instead of recomputing.
	StateDraining MemberState = "draining"
)

// Member is one worker's membership record.
type Member struct {
	ID    string      `json:"id"` // base URL, e.g. http://127.0.0.1:8101
	State MemberState `json:"state"`
	// Fails counts consecutive failed probes (reset on success).
	Fails int `json:"fails,omitempty"`
}

// MembershipConfig tunes health-gated membership.
type MembershipConfig struct {
	// Seed and VNodes parameterize the ring (see NewRing).
	Seed   uint64
	VNodes int
	// FailThreshold is how many consecutive failed /readyz probes eject
	// a healthy member (default 2).
	FailThreshold int
	// Interval is the heartbeat probe period (default 500ms).
	Interval time.Duration
	// Client issues the probes (default: 2s-timeout client).
	Client *http.Client
	// Registry, when non-nil, receives the ring/member gauges and the
	// rebalance counter.
	Registry *obs.Registry
}

func (c MembershipConfig) withDefaults() MembershipConfig {
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 2 * time.Second}
	}
	return c
}

// Membership is the health-gated member table behind the router: a
// background prober pulls every member's /readyz, push heartbeats
// (POST /cluster/join) fast-join new workers, and every state change
// rebuilds the consistent-hash ring. The current and previous rings
// are immutable values behind atomic pointers, so routing never takes
// the membership lock.
type Membership struct {
	cfg MembershipConfig

	mu      sync.Mutex
	members map[string]*Member

	ring atomic.Pointer[Ring]
	// prevRing is the ring before the latest rebalance: the source of
	// fill-from hints, so a key that moved shards is cloned from the
	// node that cached it instead of recomputed.
	prevRing atomic.Pointer[Ring]

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewMembership builds the table with every initial worker healthy.
// Call Start to arm the background prober.
func NewMembership(cfg MembershipConfig, workers []string) *Membership {
	m := &Membership{
		cfg:     cfg.withDefaults(),
		members: make(map[string]*Member),
		stop:    make(chan struct{}),
	}
	for _, w := range workers {
		m.members[w] = &Member{ID: w, State: StateHealthy}
	}
	m.mu.Lock()
	m.rebalanceLocked("init")
	m.mu.Unlock()
	return m
}

// Ring returns the current ring (never nil).
func (m *Membership) Ring() *Ring { return m.ring.Load() }

// FillFrom returns the peer that owned key before the latest
// rebalance, when it differs from owner — the donor for a cross-node
// cache fill. Empty when the key never moved.
func (m *Membership) FillFrom(key, owner string) string {
	prev := m.prevRing.Load()
	if prev == nil {
		return ""
	}
	p := prev.Owner(key)
	if p == "" || p == owner {
		return ""
	}
	return p
}

// Members returns a sorted snapshot of the table.
func (m *Membership) Members() []Member {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Member, 0, len(m.members))
	for _, mem := range m.members {
		out = append(out, *mem)
	}
	// Sorted by ID for stable /cluster/members output.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID < out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// HealthyCount returns how many members are on the ring.
func (m *Membership) HealthyCount() int { return m.Ring().Len() }

// Join upserts a worker (push heartbeat: POST /cluster/join). A new or
// previously ejected worker is admitted immediately and the ring
// rebalances; a known healthy worker just resets its failure count.
func (m *Membership) Join(id string) {
	if id == "" {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	mem, ok := m.members[id]
	if !ok {
		m.members[id] = &Member{ID: id, State: StateHealthy}
		m.rebalanceLocked("join")
		return
	}
	mem.Fails = 0
	if mem.State != StateHealthy {
		mem.State = StateHealthy
		m.rebalanceLocked("readmit")
	}
}

// MarkFailed ejects a worker after a forward-level connection failure
// — stronger evidence than a missed probe, so it does not wait for
// FailThreshold. The prober re-admits it when /readyz recovers.
func (m *Membership) MarkFailed(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mem, ok := m.members[id]
	if !ok || mem.State == StateUnhealthy {
		return
	}
	mem.State = StateUnhealthy
	mem.Fails = m.cfg.FailThreshold
	m.rebalanceLocked("fail")
}

// MarkDraining ejects a worker that answered "draining": new work
// routes to its ring successors while its queued work completes, and
// fill-from hints point back at it so its warm cache migrates.
func (m *Membership) MarkDraining(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mem, ok := m.members[id]
	if !ok || mem.State == StateDraining {
		return
	}
	mem.State = StateDraining
	m.rebalanceLocked("drain")
}

// rebalanceLocked rebuilds the ring from the healthy members and
// retires the old ring into the fill-from slot.
func (m *Membership) rebalanceLocked(reason string) {
	healthy := make([]string, 0, len(m.members))
	counts := map[MemberState]int{}
	for _, mem := range m.members {
		counts[mem.State]++
		if mem.State == StateHealthy {
			healthy = append(healthy, mem.ID)
		}
	}
	old := m.ring.Load()
	next := NewRing(m.cfg.Seed, m.cfg.VNodes, healthy)
	m.ring.Store(next)
	if old != nil {
		m.prevRing.Store(old)
	}
	reg := m.cfg.Registry
	reg.Set(obs.MetricClusterRingNodes, float64(len(healthy)))
	for _, st := range []MemberState{StateHealthy, StateUnhealthy, StateDraining} {
		reg.Set(obs.MetricClusterMembers, float64(counts[st]), obs.L("state", string(st)))
	}
	if reason != "init" {
		reg.Inc(obs.MetricClusterRebalances, obs.L("reason", reason))
	}
}

// readyBody is the slice of serve.ReadyResponse the prober reads: the
// draining flag distinguishes "draining — eject now, clone its shard"
// from any other refusal ("alive, keep routing") without string
// matching.
type readyBody struct {
	Draining bool `json:"draining"`
}

// ProbeAll pulls every member's /readyz once and applies the state
// transitions. Exported so tests drive membership deterministically
// without the background loop.
func (m *Membership) ProbeAll() {
	for _, mem := range m.Members() {
		m.probe(mem.ID)
	}
}

func (m *Membership) probe(id string) {
	resp, err := m.cfg.Client.Get(id + "/readyz")
	if err != nil {
		m.probeFailed(id)
		return
	}
	var body readyBody
	json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		m.Join(id)
	case body.Draining:
		m.MarkDraining(id)
	default:
		// Any other refusal: alive but shedding. The worker stays on the
		// ring — its own admission control sheds with Retry-After hints,
		// and ejecting it would dogpile its shard onto neighbours.
	}
}

// probeFailed counts one missed heartbeat and ejects at the threshold.
func (m *Membership) probeFailed(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mem, ok := m.members[id]
	if !ok {
		return
	}
	mem.Fails++
	if mem.State == StateHealthy && mem.Fails >= m.cfg.FailThreshold {
		mem.State = StateUnhealthy
		m.rebalanceLocked("fail")
	}
}

// Start arms the background heartbeat prober.
func (m *Membership) Start() {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(m.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.ProbeAll()
			}
		}
	}()
}

// Close stops the prober.
func (m *Membership) Close() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
}
