package service

import (
	"context"
	"testing"

	"repro/internal/obs"
)

func TestHandleBatchOrderAndIsolation(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 64, CacheCapacity: 64, Registry: obs.NewRegistry()})
	defer s.Drain()

	reqs := []Request{
		{Experiment: "E1"},
		{Scenario: "bss-overflow"},
		{Experiment: "nope"},       // fails alone
		{Scenario: "bss-overflow"}, // duplicate: coalesced or hit
	}
	out := s.HandleBatch(context.Background(), reqs)
	if len(out) != len(reqs) {
		t.Fatalf("got %d outcomes, want %d", len(out), len(reqs))
	}
	if out[0].Err != nil || out[0].Result == nil || out[0].Result.ID != "E1" {
		t.Fatalf("outcome 0 = %+v", out[0])
	}
	if out[1].Err != nil || out[1].Result.ID != "bss-overflow" {
		t.Fatalf("outcome 1 = %+v", out[1])
	}
	if out[2].Err == nil {
		t.Fatal("outcome 2: unknown experiment must fail its own slot")
	}
	if out[3].Err != nil || out[3].Result.Key != out[1].Result.Key {
		t.Fatalf("outcome 3 = %+v, want same content key as outcome 1", out[3])
	}

	// New prewarmed every image configuration a scenario constructs, so
	// the pool served the scenario's construction as a hit.
	st := s.Pool().Stats()
	if st.Misses != 0 {
		t.Fatalf("pool stats = %+v, want 0 misses (New prewarms)", st)
	}
	if st.Hits == 0 {
		t.Fatalf("pool stats = %+v, want the scenario construction to hit a template", st)
	}
}

func TestHandleBatchEmpty(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, CacheCapacity: 4, Registry: obs.NewRegistry()})
	defer s.Drain()
	if out := s.HandleBatch(context.Background(), nil); len(out) != 0 {
		t.Fatalf("empty batch returned %d outcomes", len(out))
	}
}
