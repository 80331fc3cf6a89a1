package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// SoakSchemaVersion versions the SoakReport JSON shape.
const SoakSchemaVersion = "pnserve-tenant/v1"

// TenantSpec describes one simulated tenant's offered load.
type TenantSpec struct {
	Name string `json:"name"`
	// Pattern shapes arrivals: "steady" spaces them uniformly; "bursty"
	// packs each second's worth of arrivals into the first 100ms of the
	// second (a spiky client that leans on its burst allowance).
	Pattern string `json:"pattern"`
	// Rate is the offered load in requests per second.
	Rate float64 `json:"rate"`
	// Priority is the lane requests target ("high", "normal", "low").
	Priority string `json:"priority"`
	// LowEvery, when > 0, sends every Nth request to the low lane
	// regardless of Priority — background work mixed into a workload.
	LowEvery int `json:"low_every,omitempty"`
	// ChaosProb is the probability one execution dies (panic-equivalent)
	// and feeds the tenant's circuit breaker.
	ChaosProb float64 `json:"chaos_prob,omitempty"`
}

// SoakConfig parameterizes the deterministic multi-tenant soak.
type SoakConfig struct {
	// Seed drives every random draw; equal seeds produce byte-equal
	// reports.
	Seed int64 `json:"seed"`
	// Duration is the virtual length of the arrival window.
	Duration time.Duration `json:"-"`
	// Workers is the simulated pool size.
	Workers int `json:"workers"`
	// QueueDepth bounds each lane, as in SchedulerConfig.
	QueueDepth int `json:"queue_depth"`
	// ServiceMin/ServiceMax bound the per-request service time, drawn
	// uniformly.
	ServiceMin time.Duration `json:"-"`
	ServiceMax time.Duration `json:"-"`
	// Quota/Breaker/Aging arm the same admission components the live
	// scheduler composes.
	Quota   QuotaConfig   `json:"-"`
	Breaker BreakerConfig `json:"-"`
	Aging   time.Duration `json:"-"`
	// StarvationBudget is the queue wait past which a served request
	// counts as starved (default 10x Aging, or 1s when aging is off).
	StarvationBudget time.Duration `json:"-"`
	Tenants          []TenantSpec  `json:"tenants"`
}

func (c SoakConfig) withDefaults() SoakConfig {
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.ServiceMin <= 0 {
		c.ServiceMin = 8 * time.Millisecond
	}
	if c.ServiceMax < c.ServiceMin {
		c.ServiceMax = 12 * time.Millisecond
	}
	if c.StarvationBudget <= 0 {
		if c.Aging > 0 {
			c.StarvationBudget = 10 * c.Aging
		} else {
			c.StarvationBudget = time.Second
		}
	}
	return c
}

// DefaultSoakConfig is the adversarial three-tenant scenario
// TestSoakFairnessGates runs: a greedy tenant hammering the high lane far past its
// quota, a bursty tenant leaning on its burst allowance, and a
// well-behaved tenant offering a modest mixed-priority load that must
// keep flowing regardless.
func DefaultSoakConfig(seed int64) SoakConfig {
	return SoakConfig{
		Seed:       seed,
		Duration:   10 * time.Second,
		Workers:    4,
		QueueDepth: 64,
		ServiceMin: 8 * time.Millisecond,
		ServiceMax: 12 * time.Millisecond,
		Quota:      QuotaConfig{Rate: 150, Burst: 75},
		Breaker:    BreakerConfig{Threshold: 5, Cooldown: 500 * time.Millisecond},
		Aging:      100 * time.Millisecond,
		Tenants: []TenantSpec{
			{Name: "greedy", Pattern: "steady", Rate: 500, Priority: "high"},
			{Name: "bursty", Pattern: "bursty", Rate: 100, Priority: "normal"},
			{Name: "wellbehaved", Pattern: "steady", Rate: 50, Priority: "normal", LowEvery: 4},
		},
	}
}

// TenantStats is one tenant's soak outcome.
type TenantStats struct {
	Name     string `json:"name"`
	Pattern  string `json:"pattern"`
	Offered  int    `json:"offered"`
	Admitted int    `json:"admitted"`
	// Completed excludes chaos deaths; GoodputRPS is Completed over the
	// arrival window.
	Completed  int            `json:"completed"`
	Failed     int            `json:"failed"`
	Shed       map[string]int `json:"shed,omitempty"`
	GoodputRPS float64        `json:"goodput_rps"`
	// FairShare is Completed/Offered — the fraction of this tenant's
	// offered load the service actually finished.
	FairShare float64 `json:"fair_share"`
	P50MS     float64 `json:"p50_ms"`
	P95MS     float64 `json:"p95_ms"`
	P99MS     float64 `json:"p99_ms"`
}

// SoakReport is one soak's outcome; TestSoakGolden pins its JSON.
type SoakReport struct {
	SchemaVersion string        `json:"schema_version"`
	Seed          int64         `json:"seed"`
	DurationMS    int64         `json:"duration_ms"`
	Workers       int           `json:"workers"`
	QueueDepth    int           `json:"queue_depth"`
	QuotaRate     float64       `json:"quota_rate"`
	QuotaBurst    float64       `json:"quota_burst"`
	AgingMS       int64         `json:"aging_ms"`
	Tenants       []TenantStats `json:"tenants"`
	// AgedPromotions counts queue entries served via priority aging.
	AgedPromotions uint64 `json:"aged_promotions"`
	// StarvationRatio is, over admitted low-lane requests, the fraction
	// that waited past the starvation budget (or were never served).
	// TestSoakFairnessGates requires exactly 0.
	StarvationRatio float64 `json:"starvation_ratio"`
	LowAdmitted     int     `json:"low_admitted"`
	LowStarved      int     `json:"low_starved"`
	// BreakerOpens counts open transitions across all (tenant, class)
	// breakers.
	BreakerOpens int `json:"breaker_opens"`
}

// soakArrival is one offered request.
type soakArrival struct {
	at       time.Duration // virtual offset of arrival
	tenant   int           // index into cfg.Tenants
	priority Priority
}

// arrivalSchedule lays out every tenant's offered requests over the
// window, deterministically.
func arrivalSchedule(cfg SoakConfig) []soakArrival {
	var all []soakArrival
	for ti, spec := range cfg.Tenants {
		if spec.Rate <= 0 {
			continue
		}
		base, _ := ParsePriority(spec.Priority)
		n := int(spec.Rate * cfg.Duration.Seconds())
		for i := 0; i < n; i++ {
			var at time.Duration
			switch spec.Pattern {
			case "bursty":
				// Pack each second's arrivals into its first 100ms.
				perSec := int(spec.Rate)
				sec := i / perSec
				within := i % perSec
				at = time.Duration(sec)*time.Second +
					time.Duration(float64(within)/float64(perSec)*float64(100*time.Millisecond))
			default: // steady
				at = time.Duration(float64(i) / spec.Rate * float64(time.Second))
			}
			pri := base
			if spec.LowEvery > 0 && (i+1)%spec.LowEvery == 0 {
				pri = PriorityLow
			}
			all = append(all, soakArrival{at: at, tenant: ti, priority: pri})
		}
	}
	// Stable order: by time, then tenant index (tenant order in the
	// config is the tie-break, so the schedule is reproducible).
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].at != all[j].at {
			return all[i].at < all[j].at
		}
		return all[i].tenant < all[j].tenant
	})
	return all
}

// soakClass is the breaker class every soak request runs under.
const soakClass = "scenario/soak"

// soakJob is one admitted request flowing through the simulated pool.
type soakJob struct {
	tenant   int
	priority Priority
	enq      time.Duration // arrival/admission instant
	start    time.Duration // dispatch instant (start - enq is the queue wait)
}

// RunTenantSoak runs the adversarial multi-tenant soak as a
// discrete-event simulation on a virtual clock. It admits every
// request through the live scheduler's own admission sequence — the
// same breakers, quotas and fair queue — but drives the queue
// synchronously, so for a fixed seed the report is byte-deterministic:
// no wall clock, no goroutine interleaving, no map-order dependence.
func RunTenantSoak(cfg SoakConfig) *SoakReport {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	epoch := time.Unix(1_700_000_000, 0)
	var cur time.Duration // virtual now
	now := func() time.Time { return epoch.Add(cur) }

	breakerOpens := 0
	bcfg := cfg.Breaker
	bcfg.OnEvent = func(event, tenant, class string) {
		if event == "open" {
			breakerOpens++
		}
	}
	breakers := newBreakerSet(bcfg, now)
	fq := newFairQueue(cfg.QueueDepth, cfg.Aging, now)
	adm := admission{quotas: NewTenantQuotas(cfg.Quota, now), breakers: breakers, fq: fq, now: now}

	arrivals := arrivalSchedule(cfg)
	// jobs maps each admitted task to its simulated job: the fair queue
	// hands back the task, and the job carries the soak's timing.
	jobs := map[*task]*soakJob{}

	stats := make([]TenantStats, len(cfg.Tenants))
	latencies := make([][]float64, len(cfg.Tenants))
	for i, spec := range cfg.Tenants {
		stats[i] = TenantStats{Name: spec.Name, Pattern: spec.Pattern, Shed: map[string]int{}}
	}
	lowAdmitted, lowStarved := 0, 0

	// Worker pool: busyUntil per worker plus the job it finishes then.
	type workerState struct {
		busyUntil time.Duration
		job       *soakJob
	}
	workers := make([]workerState, cfg.Workers)

	finish := func(w *workerState) {
		j := w.job
		w.job = nil
		spec := cfg.Tenants[j.tenant]
		st := &stats[j.tenant]
		lat := w.busyUntil - j.enq
		if j.priority == PriorityLow && j.start-j.enq > cfg.StarvationBudget {
			lowStarved++
		}
		if spec.ChaosProb > 0 && rng.Float64() < spec.ChaosProb {
			breakers.failure(spec.Name, soakClass)
			st.Failed++
			return
		}
		breakers.success(spec.Name, soakClass)
		st.Completed++
		latencies[j.tenant] = append(latencies[j.tenant], float64(lat.Microseconds())/1000)
	}

	// step advances the pool at virtual time t: first harvest finished
	// workers (oldest completion first, worker index as tie-break), then
	// dispatch queued work onto free workers.
	step := func(t time.Duration) {
		cur = t
		for {
			// Complete the earliest finished worker, repeatedly: a worker
			// freed at t1 < t may pick up queued work and finish again
			// before t.
			best := -1
			for wi := range workers {
				if workers[wi].job != nil && workers[wi].busyUntil <= t {
					if best == -1 || workers[wi].busyUntil < workers[best].busyUntil {
						best = wi
					}
				}
			}
			if best >= 0 {
				// Rewind the clock to the completion instant so refills,
				// aging, and breaker cooldowns see the true time course.
				saved := cur
				cur = workers[best].busyUntil
				finish(&workers[best])
				// The freed worker immediately pulls the next queued entry.
				if e := fq.tryPop(); e != nil {
					j := jobs[e.t]
					j.start = cur
					svc := cfg.ServiceMin + time.Duration(rng.Int63n(int64(cfg.ServiceMax-cfg.ServiceMin)+1))
					workers[best].job = j
					workers[best].busyUntil = cur + svc
				}
				cur = saved
				continue
			}
			break
		}
		// Idle workers pull queued work at the current instant.
		for wi := range workers {
			if workers[wi].job != nil {
				continue
			}
			e := fq.tryPop()
			if e == nil {
				break
			}
			j := jobs[e.t]
			j.start = cur
			svc := cfg.ServiceMin + time.Duration(rng.Int63n(int64(cfg.ServiceMax-cfg.ServiceMin)+1))
			workers[wi].job = j
			workers[wi].busyUntil = cur + svc
		}
	}

	for _, a := range arrivals {
		step(a.at)
		spec := cfg.Tenants[a.tenant]
		st := &stats[a.tenant]
		st.Offered++
		j := &soakJob{tenant: a.tenant, priority: a.priority, enq: a.at}
		t := &task{adm: Admit{Tenant: spec.Name, Priority: a.priority, Class: soakClass}}
		if e, reason, _ := adm.admit(t, nil); e == nil {
			st.Shed[reason]++
			continue
		}
		jobs[t] = j
		st.Admitted++
		if a.priority == PriorityLow {
			lowAdmitted++
		}
		step(a.at) // newly queued work may start immediately
	}

	// Drain: keep stepping until the queue and every worker are idle.
	for t := cfg.Duration; ; t += time.Millisecond {
		step(t)
		busy := false
		for wi := range workers {
			if workers[wi].job != nil {
				busy = true
				break
			}
		}
		if !busy && fq.tryPop() == nil {
			break
		}
		if t > cfg.Duration+time.Minute {
			// Safety valve; should be unreachable.
			break
		}
	}

	rep := &SoakReport{
		SchemaVersion:  SoakSchemaVersion,
		Seed:           cfg.Seed,
		DurationMS:     cfg.Duration.Milliseconds(),
		Workers:        cfg.Workers,
		QueueDepth:     cfg.QueueDepth,
		QuotaRate:      cfg.Quota.Rate,
		QuotaBurst:     cfg.Quota.withDefaults().Burst,
		AgingMS:        cfg.Aging.Milliseconds(),
		AgedPromotions: fq.Promotions(),
		LowAdmitted:    lowAdmitted,
		LowStarved:     lowStarved,
		BreakerOpens:   breakerOpens,
	}
	for i := range stats {
		st := &stats[i]
		st.GoodputRPS = round3(float64(st.Completed) / cfg.Duration.Seconds())
		if st.Offered > 0 {
			st.FairShare = round3(float64(st.Completed) / float64(st.Offered))
		}
		st.P50MS = round3(percentile(latencies[i], 0.50))
		st.P95MS = round3(percentile(latencies[i], 0.95))
		st.P99MS = round3(percentile(latencies[i], 0.99))
		if len(st.Shed) == 0 {
			st.Shed = nil
		}
		rep.Tenants = append(rep.Tenants, *st)
	}
	if lowAdmitted > 0 {
		rep.StarvationRatio = round3(float64(lowStarved) / float64(lowAdmitted))
	}
	return rep
}

// percentile is nearest-rank on a copy of samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// TenantByName finds one tenant's stats in a report.
func (r *SoakReport) TenantByName(name string) (*TenantStats, error) {
	for i := range r.Tenants {
		if r.Tenants[i].Name == name {
			return &r.Tenants[i], nil
		}
	}
	return nil, fmt.Errorf("soak report has no tenant %q", name)
}

var update = flag.Bool("update", false, "rewrite golden files")

// TestSoakGolden pins the default soak's report byte for byte at two
// seeds, indented JSON with a trailing newline. Regenerate with
// go test ./internal/service -run TestSoakGolden -update
func TestSoakGolden(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			got, err := json.MarshalIndent(RunTenantSoak(DefaultSoakConfig(seed)), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", fmt.Sprintf("soak_seed%d.json", seed))
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("soak report at seed %d drifted from %s:\n%s", seed, path, got)
			}
		})
	}
}

// TestSoakByteDeterministic: equal seeds produce byte-equal reports,
// and different seeds different ones.
func TestSoakByteDeterministic(t *testing.T) {
	a, err := json.MarshalIndent(RunTenantSoak(DefaultSoakConfig(42)), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(RunTenantSoak(DefaultSoakConfig(42)), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two soaks with the same seed produced different bytes")
	}
	c, _ := json.MarshalIndent(RunTenantSoak(DefaultSoakConfig(43)), "", "  ")
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical reports (seed not plumbed)")
	}
}

// TestSoakFairnessGates: the adversarial three-tenant scenario meets
// the issue's acceptance gates — the well-behaved tenant keeps >= 80%
// of its offered goodput while the greedy tenant is rate-limited, and
// nothing starves.
func TestSoakFairnessGates(t *testing.T) {
	rep := RunTenantSoak(DefaultSoakConfig(42))

	well, err := rep.TenantByName("wellbehaved")
	if err != nil {
		t.Fatal(err)
	}
	if well.FairShare < 0.8 {
		t.Fatalf("well-behaved fair share = %g, want >= 0.8", well.FairShare)
	}

	greedy, err := rep.TenantByName("greedy")
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Shed[ReasonQuota] == 0 {
		t.Fatal("greedy tenant was never quota-limited")
	}
	if greedy.Completed >= greedy.Offered {
		t.Fatal("greedy tenant completed its entire overload")
	}

	if rep.StarvationRatio != 0 {
		t.Fatalf("starvation ratio = %g (starved %d of %d), want 0",
			rep.StarvationRatio, rep.LowStarved, rep.LowAdmitted)
	}
	if rep.LowAdmitted == 0 {
		t.Fatal("no low-priority work admitted; the starvation gate is vacuous")
	}
	for _, ts := range rep.Tenants {
		if ts.Completed > 0 && ts.P99MS <= 0 {
			t.Fatalf("tenant %s has completions but no p99", ts.Name)
		}
	}
}

// TestSoakChaosFeedsBreaker: a tenant whose executions keep dying trips
// its circuit breaker, which sheds with breaker_open instead of
// wasting workers.
func TestSoakChaosFeedsBreaker(t *testing.T) {
	cfg := DefaultSoakConfig(7)
	cfg.Tenants = append(cfg.Tenants, TenantSpec{
		Name: "crashy", Pattern: "steady", Rate: 100, Priority: "normal", ChaosProb: 0.9,
	})
	rep := RunTenantSoak(cfg)
	if rep.BreakerOpens == 0 {
		t.Fatal("chaos tenant never opened its breaker")
	}
	crashy, err := rep.TenantByName("crashy")
	if err != nil {
		t.Fatal(err)
	}
	if crashy.Shed[ReasonBreakerOpen] == 0 {
		t.Fatal("open breaker never shed a crashy request")
	}
	// The breaker isolates: other tenants never see breaker_open.
	for _, name := range []string{"greedy", "bursty", "wellbehaved"} {
		ts, err := rep.TenantByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if ts.Shed[ReasonBreakerOpen] != 0 {
			t.Fatalf("tenant %s shed by another tenant's breaker", name)
		}
	}
}

// TestSoakReleasesShedProbe: a half-open probe that the quota sheds
// gives the probe back, so a tenant whose executions keep dying still
// gets a probe on its next request after each cooldown instead of
// answering breaker_open for good.
func TestSoakReleasesShedProbe(t *testing.T) {
	rep := RunTenantSoak(SoakConfig{
		Seed:     1,
		Duration: 10 * time.Second,
		Quota:    QuotaConfig{Rate: 5, Burst: 1},
		Breaker:  BreakerConfig{Threshold: 1, Cooldown: 100 * time.Millisecond},
		Tenants: []TenantSpec{
			{Name: "flaky", Pattern: "steady", Rate: 50, Priority: "normal", ChaosProb: 0.5},
		},
	})
	flaky, err := rep.TenantByName("flaky")
	if err != nil {
		t.Fatal(err)
	}
	if flaky.Shed[ReasonBreakerOpen] >= flaky.Shed[ReasonQuota] {
		t.Errorf("breaker_open sheds = %d, quota sheds = %d; want fewer breaker_open (a shed probe was never released)",
			flaky.Shed[ReasonBreakerOpen], flaky.Shed[ReasonQuota])
	}
	if flaky.Admitted < 20 {
		t.Errorf("admitted %d of %d, want at least 20 (shed %v)", flaky.Admitted, flaky.Offered, flaky.Shed)
	}
}

// TestSoakAgingPromotes: the default scenario's mixed low-priority work
// behind a greedy high-priority stream exercises the aging path.
func TestSoakAgingPromotes(t *testing.T) {
	cfg := DefaultSoakConfig(42)
	rep := RunTenantSoak(cfg)
	if rep.AgedPromotions == 0 {
		t.Skip("no promotions at this load; aging untested here (covered by fairqueue tests)")
	}
}

// TestSoakShortWindow: a 1s window still produces a sane report (the
// smoke the CI job uses to keep runtime down).
func TestSoakShortWindow(t *testing.T) {
	cfg := DefaultSoakConfig(1)
	cfg.Duration = time.Second
	rep := RunTenantSoak(cfg)
	if rep.DurationMS != 1000 || rep.SchemaVersion != SoakSchemaVersion {
		t.Fatalf("report header = %+v", rep)
	}
	total := 0
	for _, ts := range rep.Tenants {
		shed := 0
		for _, n := range ts.Shed {
			shed += n
		}
		if ts.Offered != ts.Admitted+shed {
			t.Fatalf("tenant %s: offered %d != admitted %d + shed %d", ts.Name, ts.Offered, ts.Admitted, shed)
		}
		if ts.Admitted != ts.Completed+ts.Failed {
			t.Fatalf("tenant %s: admitted %d != completed %d + failed %d (work lost)",
				ts.Name, ts.Admitted, ts.Completed, ts.Failed)
		}
		total += ts.Offered
	}
	if total == 0 {
		t.Fatal("empty schedule")
	}
}
