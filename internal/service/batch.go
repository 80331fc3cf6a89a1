package service

import (
	"context"
	"sync"
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
// deadlines, cache, shedding all apply per item). The template pool
// already holds every image configuration a scenario constructs (New
// prewarms them), so no item constructs an image cold. Outcomes are
// returned in request order; a failed item never fails its siblings.
func (s *Service) HandleBatch(ctx context.Context, reqs []Request) []BatchOutcome {
	out := make([]BatchOutcome, len(reqs))
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
