package cluster

import (
	"net/http/httptest"

	"repro/internal/serve"
)

// Fleet is an in-process cluster: n real serve.Server workers behind
// real HTTP listeners and one Router in front. The package tests and
// BenchmarkFleetMissPhaseScaling use it to exercise the exact
// production handlers — ring routing, hop headers, cross-node fill,
// drain migration — without spawning processes; the CI smoke job runs
// the same topology as separate processes.
type Fleet struct {
	workers    []*serve.Server
	workerSrvs []*httptest.Server
	router     *Router
	routerSrv  *httptest.Server
}

// NewFleet starts n workers with cfg (TrustAdmitted is forced on:
// fleet workers sit behind the router's admission) and a router with
// rcfg (Workers is filled in). The router's heartbeat prober is NOT
// started — call Router().StartHeartbeat() or drive
// Membership().ProbeAll() manually for determinism.
func NewFleet(n int, cfg serve.Config, rcfg RouterConfig) *Fleet {
	f := &Fleet{}
	cfg.TrustAdmitted = true
	for i := 0; i < n; i++ {
		w := serve.NewServer(cfg)
		ts := httptest.NewServer(w.Handler())
		f.workers = append(f.workers, w)
		f.workerSrvs = append(f.workerSrvs, ts)
		rcfg.Workers = append(rcfg.Workers, ts.URL)
	}
	f.router = NewRouter(rcfg)
	f.routerSrv = httptest.NewServer(f.router.Handler())
	return f
}

// URL returns the router's base URL.
func (f *Fleet) URL() string { return f.routerSrv.URL }

// Router returns the front end.
func (f *Fleet) Router() *Router { return f.router }

// Size returns the worker count (stopped workers included).
func (f *Fleet) Size() int { return len(f.workers) }

// Worker returns worker i's server (for cache and trace inspection).
func (f *Fleet) Worker(i int) *serve.Server { return f.workers[i] }

// WorkerURL returns worker i's base URL.
func (f *Fleet) WorkerURL(i int) string { return f.workerSrvs[i].URL }

// KillWorker hard-stops worker i's listener — the crash case. The
// router discovers it on the next forward or probe and re-routes.
func (f *Fleet) KillWorker(i int) {
	f.workerSrvs[i].CloseClientConnections()
	f.workerSrvs[i].Close()
}

// DrainWorker gracefully drains worker i: its HTTP layer 503s new
// work (structured draining rejection, failing readiness) while
// queued work completes; the listener stays up so the router can
// clone its warm cache and its in-flight responses land.
func (f *Fleet) DrainWorker(i int) { f.workers[i].BeginDrain() }

// Close shuts the fleet down: router first (stop routing), then the
// workers.
func (f *Fleet) Close() {
	f.routerSrv.Close()
	f.router.Close()
	for i, ts := range f.workerSrvs {
		ts.Close()
		f.workers[i].Service().Drain()
	}
}
