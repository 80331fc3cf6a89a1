package service

import (
	"context"
	"sync"

	"repro/internal/mem"
)

// MaxBatchSize bounds one /runbatch admission. Batches are a fairness
// hazard (one call can occupy many queue slots); the bound keeps a
// single client from monopolising a lane.
const MaxBatchSize = 64

// BatchOutcome is one request's result within a batch, in request
// order. Exactly one of Result/Err is meaningful.
type BatchOutcome struct {
	Result *Result
	Cache  string
	Err    error
}

// HandleBatch admits every request in one call and serves them
// concurrently through the normal per-request path (scheduler lanes,
// deadlines, cache, shedding all apply per item). Before dispatch it
// resolves the batch's distinct image configurations once and prewarms
// the template pool for them, so the batch shares one template lookup
// instead of racing N cold constructions. Outcomes are returned in
// request order; a failed item never fails its siblings.
func (s *Service) HandleBatch(ctx context.Context, reqs []Request) []BatchOutcome {
	out := make([]BatchOutcome, len(reqs))
	if len(reqs) == 0 {
		return out
	}

	// One template lookup for the whole batch: collect the distinct
	// image configurations the requests will construct and prewarm them
	// while still on the caller's goroutine.
	seen := map[mem.ImageConfig]bool{}
	var cfgs []mem.ImageConfig
	for _, r := range reqs {
		n, err := normalize(r)
		if err != nil || n.kind != "scenario" {
			continue
		}
		mo := n.defCfg.MachineOptions()
		icfg := mo.Image
		icfg.ExecStack = mo.ExecStack
		if !seen[icfg] {
			seen[icfg] = true
			cfgs = append(cfgs, icfg)
		}
	}
	s.pool.Prewarm(cfgs...)

	var wg sync.WaitGroup
	wg.Add(len(reqs))
	for i, r := range reqs {
		go func(i int, r Request) {
			defer wg.Done()
			res, tok, err := s.Handle(ctx, r)
			out[i] = BatchOutcome{Result: res, Cache: tok, Err: err}
		}(i, r)
	}
	wg.Wait()
	return out
}
