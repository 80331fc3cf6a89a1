package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/report"
)

// Metric names emitted by the built-in Collector instrumentation. They
// are exported so tests and dashboards reference one spelling.
const (
	MetricReads         = "pn_mem_reads_total"
	MetricWrites        = "pn_mem_writes_total"
	MetricReadBytes     = "pn_mem_read_bytes_total"
	MetricWriteBytes    = "pn_mem_write_bytes_total"
	MetricAccessSize    = "pn_mem_access_size_bytes"
	MetricProcesses     = "pn_processes_total"
	MetricMachineEvents = "pn_machine_events_total"
	MetricVerdicts      = "pn_defense_verdicts_total"
	MetricChaosFaults   = "pn_chaos_faults_total"
	MetricJobs          = "pn_supervisor_jobs_total"
	MetricAttempts      = "pn_supervisor_attempts_total"
	MetricRetries       = "pn_supervisor_retries_total"
	MetricCrashes       = "pn_supervisor_crashes_total"
)

// Shadow-memory sanitizer metric names (harvested from each process's
// shadow.Sanitizer at finalize).
const (
	MetricShadowPoisonOps     = "pn_shadow_poison_ops_total"
	MetricShadowUnpoisonOps   = "pn_shadow_unpoison_ops_total"
	MetricShadowQuarantines   = "pn_shadow_quarantine_ops_total"
	MetricShadowCheckedWrites = "pn_shadow_checked_writes_total"
	MetricShadowViolations    = "pn_shadow_violations_total"
	MetricShadowPoisoned      = "pn_shadow_poisoned_granules"
)

// Serving-layer metric names (emitted by internal/service and exposed
// by cmd/pnserve's /metrics endpoint).
const (
	MetricServeRequests   = "pn_serve_requests_total"
	MetricServeCache      = "pn_serve_cache_events_total"
	MetricServeShed       = "pn_serve_shed_total"
	MetricServeQueueDepth = "pn_serve_queue_depth"
	MetricServeInflight   = "pn_serve_inflight"
	MetricServeLatency    = "pn_serve_latency_ms"
	MetricServePool       = "pn_serve_pool_events_total"
)

// Admission-control metric names (per-tenant quotas, weighted fair
// queueing, the adaptive concurrency limiter, and per-tenant circuit
// breakers in internal/service).
const (
	MetricServeTenantRequests   = "pn_serve_tenant_requests_total"
	MetricServeTenantShed       = "pn_serve_tenant_shed_total"
	MetricServeAgedPromotions   = "pn_serve_aged_promotions_total"
	MetricServeLimitValue       = "pn_serve_limit_value"
	MetricServeLimitOutstanding = "pn_serve_limit_outstanding"
	MetricServeLimitEvents      = "pn_serve_limit_events_total"
	MetricServeBreakerEvents    = "pn_serve_breaker_events_total"
)

// Live-observability metric names: the per-stage request latency
// breakdown (histograms labelled by stage via these explicit family
// names), the /watch event bus health, and process identity.
const (
	MetricServeStageQueueWait   = "pn_serve_stage_queue_wait_ms"
	MetricServeStageCacheLookup = "pn_serve_stage_cache_lookup_ms"
	MetricServeStageCacheFill   = "pn_serve_stage_cache_fill_ms"
	MetricServeStageClone       = "pn_serve_stage_clone_ms"
	MetricServeStageExecute     = "pn_serve_stage_execute_ms"
	MetricServeStageShadowCheck = "pn_serve_stage_shadow_check_ms"

	MetricBuildInfo        = "pn_build_info"
	MetricServeUptime      = "pn_serve_uptime_seconds"
	MetricWatchSubscribers = "pn_serve_watch_subscribers"
	MetricWatchDropped     = "pn_serve_watch_dropped_events_total"
)

// Cluster-tier metric names (emitted by internal/cluster's router and
// membership and exposed by the router's /metrics endpoint).
const (
	MetricClusterRingNodes      = "pn_cluster_ring_nodes"
	MetricClusterMembers        = "pn_cluster_members"
	MetricClusterForwards       = "pn_cluster_forwards_total"
	MetricClusterForwardRetries = "pn_cluster_forward_retries_total"
	MetricClusterForwardLatency = "pn_cluster_forward_latency_ms"
	MetricClusterRebalances     = "pn_cluster_rebalances_total"
	MetricClusterCoalesced      = "pn_cluster_coalesced_total"
	MetricClusterShed           = "pn_cluster_shed_total"
)

// Label is one metric dimension.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L builds a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// MetricType distinguishes the exposition families.
type MetricType int

// Metric types.
const (
	TypeCounter MetricType = iota + 1
	TypeGauge
	TypeHistogram
)

// String returns the Prometheus TYPE keyword.
func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// DefaultBuckets are the histogram upper bounds used when none are
// declared: power-of-two byte sizes, matching access granularities.
var DefaultBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096}

type series struct {
	labels []Label // sorted by key
	value  float64 // counter/gauge
	// histogram state
	bucketN []uint64 // per-bound counts (non-cumulative)
	sum     float64
	count   uint64
}

type family struct {
	name    string
	help    string
	typ     MetricType
	buckets []float64
	series  map[string]*series
	order   []string // insertion order of signatures; sorted at render
}

// Registry is a deterministic metrics registry: counters, gauges, and
// fixed-bucket histograms keyed by name and label set. Families are
// created on first use (with the type implied by the operation);
// Describe attaches HELP text and histogram buckets up front. All
// methods are nil-safe and safe for concurrent use; every rendering is
// fully sorted, so equal contents render to equal bytes.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{families: make(map[string]*family)} }

// Describe declares a family's help text and type before first use.
// For histograms, buckets are the upper bounds (ascending); nil selects
// DefaultBuckets. Describing an existing family only updates its help.
func (r *Registry) Describe(name, help string, typ MetricType, buckets ...float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, typ)
	f.help = help
	if typ == TypeHistogram && len(buckets) > 0 {
		f.buckets = append([]float64(nil), buckets...)
		sort.Float64s(f.buckets)
	}
}

func (r *Registry) family(name string, typ MetricType) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, typ: typ, series: make(map[string]*series)}
		if typ == TypeHistogram {
			f.buckets = DefaultBuckets
		}
		r.families[name] = f
	}
	return f
}

func signature(labels []Label) string {
	var sb strings.Builder
	for _, l := range labels {
		sb.WriteString(l.Key)
		sb.WriteByte(1)
		sb.WriteString(l.Value)
		sb.WriteByte(0)
	}
	return sb.String()
}

func (f *family) at(labels []Label) *series {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	sig := signature(ls)
	s, ok := f.series[sig]
	if !ok {
		s = &series{labels: ls}
		if f.typ == TypeHistogram {
			s.bucketN = make([]uint64, len(f.buckets))
		}
		f.series[sig] = s
		f.order = append(f.order, sig)
	}
	return s
}

// Inc adds 1 to a counter.
func (r *Registry) Inc(name string, labels ...Label) { r.Add(name, 1, labels...) }

// Add adds v to a counter (negative deltas are ignored, as Prometheus
// counters are monotone).
func (r *Registry) Add(name string, v float64, labels ...Label) {
	if r == nil || v < 0 {
		return
	}
	r.mu.Lock()
	r.family(name, TypeCounter).at(labels).value += v
	r.mu.Unlock()
}

// Set sets a gauge.
func (r *Registry) Set(name string, v float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.family(name, TypeGauge).at(labels).value = v
	r.mu.Unlock()
}

// Observe records v into a histogram.
func (r *Registry) Observe(name string, v float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	f := r.family(name, TypeHistogram)
	s := f.at(labels)
	for i, ub := range f.buckets {
		if v <= ub {
			s.bucketN[i]++
			break
		}
	}
	s.sum += v
	s.count++
	r.mu.Unlock()
}

// Value returns the current value of a counter/gauge series (0 if
// absent). For histograms it returns the observation count.
func (r *Registry) Value(name string, labels ...Label) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		return 0
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	s, ok := f.series[signature(ls)]
	if !ok {
		return 0
	}
	if f.typ == TypeHistogram {
		return float64(s.count)
	}
	return s.value
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func renderLabels(ls []Label, extra ...Label) string {
	all := append(append([]Label(nil), ls...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		// Prometheus label-value escaping: backslash, double-quote, and
		// newline. Done by hand — %q would escape the escapes again.
		v := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(l.Value)
		parts[i] = l.Key + `="` + v + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Exposition renders the registry in the Prometheus text format,
// deterministically: families sorted by name, series sorted by label
// signature, histogram buckets cumulative with the +Inf bound.
func (r *Registry) Exposition() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)

	var sb strings.Builder
	for _, n := range names {
		f := r.families[n]
		if f.help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.typ)
		sigs := append([]string(nil), f.order...)
		sort.Strings(sigs)
		for _, sig := range sigs {
			s := f.series[sig]
			switch f.typ {
			case TypeHistogram:
				var cum uint64
				for i, ub := range f.buckets {
					cum += s.bucketN[i]
					fmt.Fprintf(&sb, "%s_bucket%s %d\n", f.name,
						renderLabels(s.labels, L("le", formatFloat(ub))), cum)
				}
				fmt.Fprintf(&sb, "%s_bucket%s %d\n", f.name,
					renderLabels(s.labels, L("le", "+Inf")), s.count)
				fmt.Fprintf(&sb, "%s_sum%s %s\n", f.name, renderLabels(s.labels), formatFloat(s.sum))
				fmt.Fprintf(&sb, "%s_count%s %d\n", f.name, renderLabels(s.labels), s.count)
			default:
				fmt.Fprintf(&sb, "%s%s %s\n", f.name, renderLabels(s.labels), formatFloat(s.value))
			}
		}
	}
	return sb.String()
}

// MetricPoint is one series in the registry's plain-data snapshot.
type MetricPoint struct {
	Name   string  `json:"name"`
	Type   string  `json:"type"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
	// Histogram-only fields.
	Sum     float64   `json:"sum,omitempty"`
	Count   uint64    `json:"count,omitempty"`
	Buckets []float64 `json:"buckets,omitempty"`
	Counts  []uint64  `json:"counts,omitempty"`
}

// Snapshot returns the registry as sorted plain data, for JSON exports
// (pnbench's BENCH_*.json embeds one).
func (r *Registry) Snapshot() []MetricPoint {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []MetricPoint
	for _, n := range names {
		f := r.families[n]
		sigs := append([]string(nil), f.order...)
		sort.Strings(sigs)
		for _, sig := range sigs {
			s := f.series[sig]
			p := MetricPoint{Name: f.name, Type: f.typ.String(), Labels: s.labels, Value: s.value}
			if f.typ == TypeHistogram {
				p.Value = float64(s.count)
				p.Sum = s.sum
				p.Count = s.count
				p.Buckets = f.buckets
				p.Counts = s.bucketN
			}
			out = append(out, p)
		}
	}
	return out
}

// Table renders the registry as a report.Table (counters and gauges
// one row per series; histograms one row with count/sum).
func (r *Registry) Table(title string) *report.Table {
	t := report.NewTable(title, "metric", "labels", "value")
	for _, p := range r.Snapshot() {
		var ls []string
		for _, l := range p.Labels {
			ls = append(ls, l.Key+"="+l.Value)
		}
		v := formatFloat(p.Value)
		if p.Type == TypeHistogram.String() {
			v = fmt.Sprintf("count=%d sum=%s", p.Count, formatFloat(p.Sum))
		}
		t.AddRow(p.Name, strings.Join(ls, ","), v)
	}
	return t
}
