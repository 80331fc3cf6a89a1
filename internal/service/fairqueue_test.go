package service

import (
	"context"
	"testing"
	"time"
)

func fqTask(id string) *task {
	return &task{ctx: context.Background(), adm: Admit{ID: id}, done: make(chan taskResult, 1)}
}

// drainOrder pops until empty and returns task IDs in service order.
func drainOrder(fq *fairQueue) []string {
	var order []string
	for {
		e := fq.tryPop()
		if e == nil {
			return order
		}
		order = append(order, e.t.adm.ID)
	}
}

// TestFairQueueDRRInterleavesTenants: two backlogged tenants in one
// lane are served alternately, regardless of arrival order — the
// head-of-line blocking a plain FIFO would exhibit is gone.
func TestFairQueueDRRInterleavesTenants(t *testing.T) {
	clk := newAdmissionClock()
	fq := newFairQueue(16, 0, clk.Now)
	for i := 0; i < 3; i++ {
		fq.push(fqTask("a"), "a", PriorityNormal, nil)
	}
	for i := 0; i < 3; i++ {
		fq.push(fqTask("b"), "b", PriorityNormal, nil)
	}
	got := drainOrder(fq)
	want := []string{"a", "b", "a", "b", "a", "b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("service order = %v, want %v", got, want)
		}
	}
}

// TestFairQueueStrictPriorityAcrossLanes: without aging pressure, the
// high lane always drains before normal, normal before low.
func TestFairQueueStrictPriorityAcrossLanes(t *testing.T) {
	clk := newAdmissionClock()
	fq := newFairQueue(16, 0, clk.Now)
	fq.push(fqTask("low"), "t", PriorityLow, nil)
	fq.push(fqTask("normal"), "t", PriorityNormal, nil)
	fq.push(fqTask("high"), "t", PriorityHigh, nil)
	got := drainOrder(fq)
	want := []string{"high", "normal", "low"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("service order = %v, want %v", got, want)
		}
	}
}

// TestFairQueueAgingPromotesStarvedWork: a low-priority entry that has
// waited past the threshold outranks a fresh high-priority stream —
// the no-starvation guarantee.
func TestFairQueueAgingPromotesStarvedWork(t *testing.T) {
	clk := newAdmissionClock()
	fq := newFairQueue(16, 100*time.Millisecond, clk.Now)
	fq.push(fqTask("old-low"), "t", PriorityLow, nil)
	clk.Advance(150 * time.Millisecond)
	fq.push(fqTask("fresh-high"), "t", PriorityHigh, nil)

	e := fq.tryPop()
	if e.t.adm.ID != "old-low" {
		t.Fatalf("first served = %s, want the aged low-priority entry", e.t.adm.ID)
	}
	if !e.promoted {
		t.Fatal("aged entry not marked promoted")
	}
	if fq.Promotions() != 1 {
		t.Fatalf("promotions = %d, want 1", fq.Promotions())
	}
	if e2 := fq.tryPop(); e2.t.adm.ID != "fresh-high" {
		t.Fatalf("second served = %s, want fresh-high", e2.t.adm.ID)
	}
}

// TestFairQueueRemoveReleasesSlot: removing a queued entry frees lane
// capacity immediately and a worker can never claim it afterwards.
func TestFairQueueRemoveReleasesSlot(t *testing.T) {
	clk := newAdmissionClock()
	fq := newFairQueue(1, 0, clk.Now)
	e, res := fq.push(fqTask("victim"), "t", PriorityNormal, nil)
	if res != pushOK {
		t.Fatalf("push = %v, want pushOK", res)
	}
	if _, res := fq.push(fqTask("overflow"), "t", PriorityNormal, nil); res != pushFull {
		t.Fatalf("second push = %v, want pushFull", res)
	}
	if !fq.remove(e) {
		t.Fatal("remove of a queued entry returned false")
	}
	if fq.remove(e) {
		t.Fatal("second remove returned true; entry double-released")
	}
	if fq.len(PriorityNormal) != 0 {
		t.Fatalf("lane depth after remove = %d, want 0", fq.len(PriorityNormal))
	}
	if _, res := fq.push(fqTask("refill"), "t", PriorityNormal, nil); res != pushOK {
		t.Fatalf("push after remove = %v, want pushOK (slot released)", res)
	}
}

// TestFairQueueRemoveAfterClaimFails: once a worker claimed an entry,
// remove reports false — the worker owns completion, preventing
// double-accounting between canceller and worker.
func TestFairQueueRemoveAfterClaimFails(t *testing.T) {
	clk := newAdmissionClock()
	fq := newFairQueue(4, 0, clk.Now)
	e, _ := fq.push(fqTask("x"), "t", PriorityNormal, nil)
	if got := fq.tryPop(); got != e {
		t.Fatal("tryPop returned a different entry")
	}
	if fq.remove(e) {
		t.Fatal("remove of a claimed entry returned true")
	}
}

// TestFairQueueClosedRefusesPush and drains the backlog through pop.
func TestFairQueueClosedDrains(t *testing.T) {
	clk := newAdmissionClock()
	fq := newFairQueue(4, 0, clk.Now)
	fq.push(fqTask("queued"), "t", PriorityNormal, nil)
	fq.close()
	if _, res := fq.push(fqTask("late"), "t", PriorityNormal, nil); res != pushClosed {
		t.Fatalf("push after close = %v, want pushClosed", res)
	}
	if e := fq.pop(); e == nil || e.t.adm.ID != "queued" {
		t.Fatal("close dropped the queued backlog")
	}
	if e := fq.pop(); e != nil {
		t.Fatal("pop on a closed empty queue did not return nil")
	}
}
