package sched

import (
	"fmt"
	"slices"
)

// CheckTrace replays out's decision log for the workload specs on a
// shadow scheduler and returns the first place the log breaks the
// scheduler's rules:
//
//   - capacity: the free ranks and every tenant's ranks in use that the log
//     records follow from its starts and releases, and no start takes more
//     ranks than are free or takes a tenant past its quota;
//   - dispatch: when the next event comes — an arrival or the end of an
//     attempt — every queued job has allocFor == 0, so the dispatch after
//     the event before started whatever could start;
//   - preemption: each group of preemptions is the set of victims the
//     preemption rule (victims) picks in the state the group began in.
//
// Job IDs index specs, and the quotas are Report.Tenants'.
func CheckTrace(out *Outcome, specs []JobSpec) error {
	s := &Scheduler{freeRanks: out.Report.Ranks, tenants: make(map[string]*tenantState)}
	for _, t := range out.Report.Tenants {
		s.tenants[t.Name] = &tenantState{name: t.Name, quota: t.Quota}
		s.names = append(s.names, t.Name)
	}
	jobs := make([]*job, len(specs))
	for i, sp := range specs {
		jobs[i] = &job{id: i, spec: sp, arrival: sp.Arrival}
	}
	blocked := func() error {
		for _, j := range s.queue {
			if a := s.allocFor(j, len(s.queue)); a > 0 {
				t := s.tenants[j.spec.Tenant]
				return fmt.Errorf("sched: at %v job %d (%s, %d ranks) could start on %d ranks — %d free, its tenant holding %d of %d — but dispatch left it queued",
					s.now, j.id, j.spec.Tenant, j.spec.Ranks, a, s.freeRanks, t.inUse, t.quota)
			}
		}
		return nil
	}
	for i, ev := range out.Trace {
		if ev.JobID < 0 || ev.JobID >= len(specs) || s.tenants[specs[ev.JobID].Tenant] == nil && ev.Kind != "reject" {
			return fmt.Errorf("sched: at %v a %s of job %d, not an admitted spec", ev.At, ev.Kind, ev.JobID)
		}
		j, prev := jobs[ev.JobID], TraceEvent{}
		if i > 0 {
			prev = out.Trace[i-1]
		}
		// An arrival or the end of an attempt is the scheduler's next
		// event; a requeue and its attempt's done are one.
		if ev.Kind != "start" && ev.Kind != "preempt" && !(ev.Kind == "done" && prev.Kind == "requeue" && prev.JobID == j.id) {
			if err := blocked(); err != nil {
				return err
			}
		}
		s.now = ev.At
		switch ev.Kind {
		case "arrive":
			s.queue = append(s.queue, j)
		case "reject":
		case "start":
			if !slices.Contains(s.queue, j) {
				return fmt.Errorf("sched: at %v job %d started while not queued", ev.At, j.id)
			}
			if ev.Ranks > s.freeRanks {
				return fmt.Errorf("sched: at %v job %d started on %d ranks with %d free", ev.At, j.id, ev.Ranks, s.freeRanks)
			}
			if t := s.tenants[j.spec.Tenant]; ev.Ranks < 1 || t.inUse+ev.Ranks > t.quota {
				return fmt.Errorf("sched: at %v job %d started on %d ranks, its tenant holding %d of %d", ev.At, j.id, ev.Ranks, t.inUse, t.quota)
			}
			s.removeQueued(j)
			j.alloc, j.lastStart, j.outcome.Failed = ev.Ranks, ev.At, ev.Fails
			s.freeRanks -= ev.Ranks
			s.tenants[j.spec.Tenant].inUse += ev.Ranks
			s.running = append(s.running, j)
		case "requeue":
			s.release(j, 0)
			j.resume = true
			s.queue = append(s.queue, j)
		case "done":
			if j.alloc > 0 {
				s.release(j, 0)
			}
		case "preempt":
			if prev.Kind != "preempt" {
				var got, want []int
				for _, g := range out.Trace[i:] {
					if g.Kind != "preempt" {
						break
					}
					got = append(got, g.JobID)
				}
				for _, v := range s.victims() {
					want = append(want, v.id)
				}
				if !slices.Equal(got, want) {
					return fmt.Errorf("sched: at %v jobs %v were preempted; the preemption rule takes %v", ev.At, got, want)
				}
			}
			s.release(j, 0)
			j.preempts++
			j.resume = ev.Resume
			s.queue = append(s.queue, j)
		default:
			return fmt.Errorf("sched: at %v an event of unknown kind %q", ev.At, ev.Kind)
		}
		if inUse := s.inUse(); ev.FreeRanks != s.freeRanks || ev.InUse != nil && !slices.Equal(ev.InUse, inUse) {
			return fmt.Errorf("sched: at %v the %s of job %d is logged with %d ranks free and tenants holding %v; its starts and releases give %d and %v",
				ev.At, ev.Kind, j.id, ev.FreeRanks, ev.InUse, s.freeRanks, inUse)
		}
	}
	return blocked()
}
