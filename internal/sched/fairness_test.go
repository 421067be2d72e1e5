package sched

import (
	"testing"
	"time"
)

// TestQuotaInvariant pushes a large seeded workload of ten tenants with
// tight quotas through the scheduler; runFake replays its decision log
// against the capacity invariants at every event.
func TestQuotaInvariant(t *testing.T) {
	lc := LoadConfig{
		Seed: 9, Tenants: 10, Jobs: 600, MeanGapNs: int64(2 * time.Millisecond),
		Burst: 8, FaultFrac: 0.1, ChaosFrac: 0.1, MaxPriority: 3,
	}
	cfg := Config{
		Ranks:   32,
		Seed:    3,
		Tenants: DefaultTenantConfigs(10, 32, 16),
	}
	out := runFake(t, cfg, fakeLoad(t, lc))
	starts, attempts := 0, 0
	for _, ev := range out.Trace {
		if ev.Kind == "start" {
			starts++
		}
	}
	for _, j := range out.Jobs {
		attempts += j.Attempts
	}
	if starts == 0 || starts != attempts {
		t.Fatalf("decision log records %d dispatches, the jobs %d attempts", starts, attempts)
	}
}

// TestFairnessGiniBound: equal-priority tenants with equal quotas and
// symmetric demand see even service — the Gini over per-tenant mean
// queue waits stays small.
func TestFairnessGiniBound(t *testing.T) {
	lc := LoadConfig{
		Seed: 17, Tenants: 6, Jobs: 600, MeanGapNs: int64(2 * time.Millisecond),
		Burst: 4, MaxPriority: 0, // single priority class
	}
	cfg := Config{Ranks: 32, Seed: 3, DefaultQuota: 16}
	out := runFake(t, cfg, fakeLoad(t, lc))
	if g := out.Report.FairnessWaitGini; g > 0.35 {
		t.Fatalf("queue-wait Gini %.3f over 0.35 for equal-priority tenants", g)
	}
	if out.Report.Completed != out.Report.Jobs-out.Report.Rejected {
		t.Fatalf("%d jobs did not complete", out.Report.Jobs-out.Report.Rejected-out.Report.Completed)
	}
}

// TestNoStarvation: a minimum-priority job submitted into a permanent
// stream of high-priority work still runs — aging lifts its effective
// priority above the fresh arrivals. Without aging it would wait until the
// stream drains; the test asserts it starts while high-priority jobs are
// still waiting to start.
func TestNoStarvation(t *testing.T) {
	var specs []JobSpec
	// The low-priority job arrives just after the stream begins, into an
	// already-occupied cluster.
	specs = append(specs, JobSpec{
		Tenant: "low", Name: "small", Ranks: 8, Seed: 11, Priority: 0,
		Arrival: time.Microsecond,
	})
	// An open-loop high-priority stream: whole-cluster jobs arriving
	// faster than they drain, so contention never lets up on its own.
	for i := 0; i < 200; i++ {
		specs = append(specs, JobSpec{
			Tenant: "high", Name: "medium", Ranks: 8, Seed: 12, Priority: 5,
			Arrival: time.Duration(i) * 3 * time.Millisecond,
		})
	}
	cfg := Config{Ranks: 8, Seed: 1, QueueCap: 512, DefaultQuota: 8}
	out := runFake(t, cfg, specs)
	low := out.Jobs[0]
	if low.State != StateCompleted {
		t.Fatalf("low-priority job state %q: %s", low.State, low.Reason)
	}
	var lastHighStart time.Duration
	for _, j := range out.Jobs[1:] {
		if j.Start > lastHighStart {
			lastHighStart = j.Start
		}
	}
	if low.Start >= lastHighStart {
		t.Fatalf("low-priority job started at %v, after every high-priority job (last %v): starved until the stream drained",
			low.Start, lastHighStart)
	}
	if low.Wait < 5*time.Duration(agingNs) {
		t.Fatalf("low-priority job waited only %v; test premise (contention past five aging steps) broken", low.Wait)
	}
}

// TestPreemptionBounds: preemption respects maxPreempts (no job is
// preempted more than the cap) and strict priority (a preempted job
// never had priority >= its preemptor — verified indirectly: with a
// single priority class, no preemption happens at all).
func TestPreemptionBounds(t *testing.T) {
	lc := LoadConfig{
		Seed: 23, Tenants: 6, Jobs: 400, MeanGapNs: int64(2 * time.Millisecond),
		Burst: 6, MaxPriority: 3,
	}
	cfg := Config{Ranks: 32, Seed: 5, DefaultQuota: 16}
	out := runFake(t, cfg, fakeLoad(t, lc))
	if out.Report.Preemptions == 0 {
		t.Fatal("no preemptions in a mixed-priority saturated workload")
	}
	for _, j := range out.Jobs {
		if j.Preemptions > maxPreempts {
			t.Fatalf("job %d preempted %d times, over cap %d", j.ID, j.Preemptions, maxPreempts)
		}
	}

	// Single priority class: preemption requires strictly higher static
	// priority, so none can occur.
	lc.MaxPriority = 0
	lc.Seed = 24
	out = runFake(t, cfg, fakeLoad(t, lc))
	if out.Report.Preemptions != 0 {
		t.Fatalf("%d preemptions in a single-priority workload (strict-priority rule violated)", out.Report.Preemptions)
	}
}
