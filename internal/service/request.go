package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/attack"
	"repro/internal/chaos"
	"repro/internal/defense"
	"repro/internal/experiments"
	"repro/internal/layout"
	"repro/internal/report"
)

// CodeVersion participates in every cache key: results computed by a
// different build of the corpus must never be served for this one.
// Bump it whenever experiment or scenario semantics change.
// v2: shadow-memory sanitizer configs (shadow, sanitized+shadow), the
// dangling-write scenario, and shadow-detection outcome changes.
const CodeVersion = "pnserve/v2"

// MaxRepeat caps the per-request measurement loop: enough to make one
// request arbitrarily heavy for benchmarks, small enough that a single
// request cannot monopolise a worker for long.
const MaxRepeat = 256

// Priority selects the scheduler lane.
type Priority int

// Priority lanes, highest first.
const (
	PriorityHigh Priority = iota
	PriorityNormal
	PriorityLow
)

// String returns the lane's wire name.
func (p Priority) String() string {
	switch p {
	case PriorityHigh:
		return "high"
	case PriorityLow:
		return "low"
	default:
		return "normal"
	}
}

// ParsePriority maps a wire name to a lane; empty selects normal.
func ParsePriority(s string) (Priority, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "normal":
		return PriorityNormal, nil
	case "high":
		return PriorityHigh, nil
	case "low", "batch":
		return PriorityLow, nil
	default:
		return PriorityNormal, badRequestf("unknown priority %q (want high, normal, or low)", s)
	}
}

// Request is one unit of servable work: either an indexed experiment
// (E1..E19) or one attack scenario crossed with a defense, data model,
// and optional deterministic chaos overlay.
type Request struct {
	// Experiment is an indexed experiment ID (E1..E19). Mutually
	// exclusive with Scenario.
	Experiment string `json:"experiment,omitempty"`
	// Scenario is an attack-catalogue scenario ID (e.g. "bss-overflow").
	Scenario string `json:"scenario,omitempty"`
	// Defense names the defense configuration for scenario requests
	// (default "none").
	Defense string `json:"defense,omitempty"`
	// Model names the data model for scenario requests: ILP32,
	// ILP32-i386, or LP64 (default: the defense's own, i.e. ILP32).
	Model string `json:"model,omitempty"`
	// Seed/ChaosProb/Faults arm the deterministic chaos overlay on
	// scenario requests. ChaosProb 0 disables injection. Experiments
	// refuse the overlay: an experiment builds many processes (E19 runs
	// its own campaign), and what one request-level fault schedule
	// should mean across them is not defined yet.
	Seed      int64   `json:"seed,omitempty"`
	ChaosProb float64 `json:"chaos_prob,omitempty"`
	Faults    string  `json:"faults,omitempty"`
	// Priority selects the scheduler lane ("high", "normal", "low").
	Priority string `json:"priority,omitempty"`
	// Repeat executes the deterministic run this many times (1..256)
	// and reports the aggregate compute cost — a per-request measurement
	// loop, like a pnbench cell served over HTTP. The cluster sweep uses
	// it to give each request a tunable execution weight. Part of the
	// cache key when > 1.
	Repeat int `json:"repeat,omitempty"`
	// NoCache forces execution; the fresh result still replaces the
	// cached one.
	NoCache bool `json:"no_cache,omitempty"`
	// DeadlineMS caps this request's total time in the service —
	// queueing included. 0 selects the server default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Tenant is the admission-control identity (from the X-PN-Tenant
	// header; empty means the default tenant). It steers quotas, fair
	// queueing, and circuit breakers but is deliberately NOT part of the
	// cache key: results are content-addressed and tenant-agnostic.
	Tenant string `json:"-"`
	// TraceID is the request's trace identity (from the X-PN-Trace-Id
	// header; empty mints one). Like Tenant it is NOT part of the cache
	// key — tracing must never fragment the content-addressed cache —
	// and a client-supplied ID additionally arms detailed (per-write)
	// instrumentation for that request.
	TraceID string `json:"-"`
	// Admitted marks a request the cluster router already admitted
	// (quota and concurrency limiter charged there): the worker-side
	// scheduler skips its own quota and limiter so accounting never
	// double-counts a request crossing the router->worker hop. Set from
	// the X-PN-Admitted header, honoured only when the server runs in
	// worker mode (serve.Config.TrustAdmitted).
	Admitted bool `json:"-"`
	// FillFrom is a cluster peer base URL that owned this request's key
	// before the last ring rebalance. On a cache miss the service clones
	// the result from that replica (GET /cache/{key}) instead of
	// recomputing it — cross-node cache fill. Set from the
	// X-PN-Fill-From header; honoured only in worker mode.
	FillFrom string `json:"-"`
}

// request is a validated, normalized Request plus everything resolved
// from the catalogues.
type request struct {
	Request
	tenant   string
	priority Priority
	kind     string // "experiment" | "scenario"
	id       string // experiment or scenario ID
	exp      experiments.Experiment
	scenario attack.Scenario
	defCfg   defense.Config
	kinds    []chaos.Kind
	key      string
}

// models is the data-model catalogue by wire name.
func modelByName(name string) (layout.Model, error) {
	switch name {
	case "", layout.ILP32.Name:
		return layout.ILP32, nil
	case layout.ILP32i386.Name:
		return layout.ILP32i386, nil
	case layout.LP64.Name:
		return layout.LP64, nil
	default:
		return layout.Model{}, badRequestf("unknown data model %q (want %s, %s, or %s)",
			name, layout.ILP32.Name, layout.ILP32i386.Name, layout.LP64.Name)
	}
}

// normalize validates r against the catalogues and computes its
// content-addressed cache key.
func normalize(r Request) (*request, error) {
	out := &request{Request: r}
	out.tenant = NormalizeTenant(r.Tenant)
	pri, err := ParsePriority(r.Priority)
	if err != nil {
		return nil, err
	}
	out.priority = pri
	switch {
	case r.Repeat < 0 || r.Repeat > MaxRepeat:
		return nil, badRequestf("repeat %d out of range [1,%d]", r.Repeat, MaxRepeat)
	case r.Repeat == 0:
		out.Repeat = 1
	}

	switch {
	case r.Experiment != "" && r.Scenario != "":
		return nil, badRequestf("experiment and scenario are mutually exclusive")
	case r.Experiment == "" && r.Scenario == "":
		return nil, badRequestf("one of experiment or scenario is required")
	case r.Experiment != "":
		e, err := experiments.ByID(r.Experiment)
		if err != nil {
			return nil, &BadRequest{Reason: err.Error()}
		}
		if r.Defense != "" || r.Model != "" {
			return nil, badRequestf("defense/model apply to scenario requests only")
		}
		if r.ChaosProb != 0 || r.Seed != 0 || r.Faults != "" {
			return nil, badRequestf("the chaos overlay applies to scenario requests only; experiments run unperturbed")
		}
		out.kind, out.id, out.exp = "experiment", e.ID, e
	default:
		s, err := attack.ByID(r.Scenario)
		if err != nil {
			return nil, &BadRequest{Reason: err.Error()}
		}
		out.kind, out.id, out.scenario = "scenario", s.ID, s
		cfg, err := defenseByName(r.Defense)
		if err != nil {
			return nil, err
		}
		m, err := modelByName(r.Model)
		if err != nil {
			return nil, err
		}
		cfg.Model = m
		out.defCfg = cfg
		out.Model = m.Name
		out.Defense = cfg.Name
		if r.ChaosProb < 0 || r.ChaosProb > 1 {
			return nil, badRequestf("chaos_prob %g out of range [0,1]", r.ChaosProb)
		}
		if r.ChaosProb > 0 {
			kinds, err := chaos.ParseKinds(faultsOrAll(r.Faults))
			if err != nil {
				return nil, &BadRequest{Reason: err.Error()}
			}
			out.kinds = kinds
			out.Faults = chaos.KindNames(kinds)
		} else {
			// No injection: seed and kinds are inert; normalize them out
			// of the key so equivalent requests share a cache entry.
			out.Seed, out.Faults = 0, ""
		}
	}
	out.key = cacheKey(out)
	return out, nil
}

func faultsOrAll(s string) string {
	if strings.TrimSpace(s) == "" {
		return "all"
	}
	return s
}

func defenseByName(name string) (defense.Config, error) {
	if name == "" {
		return defense.None, nil
	}
	for _, c := range defense.Catalog() {
		if c.Name == name {
			return c, nil
		}
	}
	return defense.Config{}, badRequestf("unknown defense %q", name)
}

// cacheKey derives the content address: SHA-256 over the canonical
// encoding of everything that determines the result — code version,
// workload identity, data model, and the full chaos configuration.
func cacheKey(r *request) string {
	var sb strings.Builder
	for _, part := range []string{
		"v=" + CodeVersion,
		"kind=" + r.kind,
		"id=" + r.id,
		"defense=" + r.Defense,
		"model=" + r.Model,
		"seed=" + strconv.FormatInt(r.Seed, 10),
		"prob=" + strconv.FormatFloat(r.ChaosProb, 'g', -1, 64),
		"faults=" + r.Faults,
	} {
		sb.WriteString(part)
		sb.WriteByte('\n')
	}
	if r.Repeat > 1 {
		// Appended only when armed so every pre-existing key is unchanged.
		sb.WriteString("repeat=" + strconv.Itoa(r.Repeat))
		sb.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

// Key exposes a request's content address without scheduling it (for
// tests and cache tooling). It returns an error for invalid requests.
func Key(r Request) (string, error) {
	n, err := normalize(r)
	if err != nil {
		return "", err
	}
	return n.key, nil
}

// Result is one computed (or cache-served) answer.
type Result struct {
	// Key is the content address the result is stored under.
	Key string `json:"key"`
	// Kind is "experiment" or "scenario"; ID names the unit.
	Kind string `json:"kind"`
	ID   string `json:"id"`
	// Defense/Model/Seed/ChaosProb/Faults echo the normalized scenario
	// parameters (scenario results only).
	Defense   string  `json:"defense,omitempty"`
	Model     string  `json:"model,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	ChaosProb float64 `json:"chaos_prob,omitempty"`
	Faults    string  `json:"faults,omitempty"`
	// Repeat echoes the request's measurement loop count when > 1;
	// ComputeNS then spans all Repeat executions.
	Repeat int `json:"repeat,omitempty"`
	// Status is "ok" for experiments and the outcome word (SUCCESS,
	// prevented, detected, crashed, no-effect) for scenarios.
	Status string `json:"status"`
	// Table is the experiment's report table, or a rendered outcome
	// summary for scenarios.
	Table report.TableData `json:"table"`
	// Details/Metrics carry the scenario outcome's structured fields.
	Details []string           `json:"details,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// InjectedFaults counts chaos injections during the run.
	InjectedFaults int `json:"injected_faults,omitempty"`
	// ComputeNS is the wall-clock cost of the execution that produced
	// this result. Cache hits return the original cost — the work a hit
	// saved.
	ComputeNS int64 `json:"compute_ns"`
	// Version is the CodeVersion that computed the result.
	Version string `json:"code_version"`
}

// outcomeTable renders an attack outcome as a small report table so
// scenario responses carry the same table shape experiments do.
func outcomeTable(o *attack.Outcome, model string) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("scenario %s vs %s (%s)", o.Scenario, o.Defense, model),
		"quantity", "value")
	t.AddRow("status", o.Status())
	t.AddRow("succeeded", boolWord(o.Succeeded))
	if o.Prevented {
		t.AddRow("prevented by", o.PreventedBy)
	}
	if o.Detected {
		t.AddRow("detected by", o.DetectedBy)
	}
	t.AddRow("crashed", boolWord(o.Crashed))
	for _, k := range sortedMetricKeys(o.Metrics) {
		t.AddRow("metric "+k, strconv.FormatFloat(o.Metrics[k], 'g', -1, 64))
	}
	return t
}

func sortedMetricKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func boolWord(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
