package sched

import (
	"strings"
	"testing"
	"time"
)

// checkLoad is a tiny workload whose log has dispatch rounds that start
// several jobs and preemptions.
func checkLoad(t *testing.T) (*Outcome, []JobSpec) {
	t.Helper()
	specs := fakeLoad(t, LoadConfig{
		Seed: 5, Tenants: 3, Jobs: 60, MeanGapNs: int64(time.Millisecond),
		Burst: 4, MaxPriority: 2,
	})
	return runFake(t, Config{Ranks: 32, Seed: 3, DefaultQuota: 16}, specs), specs
}

// TestCheckTraceCatchesStoppedDispatch: a log cut right after the first
// start of a dispatch round that started two jobs is the log of a
// dispatch that stopped after one start, and the checker must refuse it.
func TestCheckTraceCatchesStoppedDispatch(t *testing.T) {
	out, specs := checkLoad(t)
	for i := 0; i+1 < len(out.Trace); i++ {
		a, b := out.Trace[i], out.Trace[i+1]
		if a.Kind != "start" || b.Kind != "start" {
			continue
		}
		cut := *out
		cut.Trace = out.Trace[:i+1]
		err := CheckTrace(&cut, specs)
		if err == nil || !strings.Contains(err.Error(), "dispatch left it queued") {
			t.Fatalf("a dispatch stopped after starting job %d, before job %d: checker says %v", a.JobID, b.JobID, err)
		}
		return
	}
	t.Fatal("no dispatch round started two jobs: the test checks nothing")
}

// TestCheckTraceCatchesWrongVictim: the same log for a workload in which a
// preempted job had the top priority is the log of a preemption that broke
// tryPreempt's rule, and the checker must refuse it.
func TestCheckTraceCatchesWrongVictim(t *testing.T) {
	out, specs := checkLoad(t)
	for _, ev := range out.Trace {
		if ev.Kind != "preempt" {
			continue
		}
		mutated := append([]JobSpec(nil), specs...)
		mutated[ev.JobID].Priority = 1 << 20
		err := CheckTrace(out, mutated)
		if err == nil || !strings.Contains(err.Error(), "preempted") {
			t.Fatalf("job %d preempted at the top priority: checker says %v", ev.JobID, err)
		}
		return
	}
	t.Fatal("no preemption: the test checks nothing")
}

// TestCheckTraceCatchesOvercommit: a log whose second start takes more
// ranks than are free, with the free count logged as its starts and
// releases give it, overcommits the cluster, and the checker must refuse
// it; the same log with that start after the first job's done is sound.
func TestCheckTraceCatchesOvercommit(t *testing.T) {
	specs := []JobSpec{{Tenant: "a", Ranks: 4}, {Tenant: "a", Ranks: 4, Arrival: 2}}
	out := func(second ...TraceEvent) *Outcome {
		return &Outcome{
			Report: &Report{Ranks: 4, Tenants: []TenantReport{{Name: "a", Quota: 8}}},
			Trace: append([]TraceEvent{
				{At: 0, Kind: "arrive", JobID: 0, FreeRanks: 4},
				{At: 0, Kind: "start", JobID: 0, Ranks: 4, FreeRanks: 0, InUse: []int{4}},
			}, second...),
		}
	}
	over := out(
		TraceEvent{At: 2, Kind: "arrive", JobID: 1, FreeRanks: 0, InUse: []int{4}},
		TraceEvent{At: 2, Kind: "start", JobID: 1, Ranks: 4, FreeRanks: -4, InUse: []int{8}},
	)
	if err := CheckTrace(over, specs); err == nil || !strings.Contains(err.Error(), "free") {
		t.Fatalf("a start on 4 ranks with none free: checker says %v", err)
	}
	sound := out(
		TraceEvent{At: 2, Kind: "arrive", JobID: 1, FreeRanks: 0, InUse: []int{4}},
		TraceEvent{At: 3, Kind: "done", JobID: 0, FreeRanks: 4, InUse: []int{0}},
		TraceEvent{At: 3, Kind: "start", JobID: 1, Ranks: 4, FreeRanks: 0, InUse: []int{4}},
		TraceEvent{At: 5, Kind: "done", JobID: 1, FreeRanks: 4, InUse: []int{0}},
	)
	if err := CheckTrace(sound, specs); err != nil {
		t.Fatalf("a sound log: %v", err)
	}
}
