package sched

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"hipmer/internal/stats"
)

// Schema identifies the service-level report format.
const Schema = "hipmer-sched/v1"

// TenantReport is one tenant's service-level accounting.
type TenantReport struct {
	Name  string `json:"name"`
	Quota int    `json:"quota"`
	// Submitted counts admitted jobs; Rejected counts admission
	// rejections (structural or queue-full).
	Submitted int `json:"submitted"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Rejected  int `json:"rejected"`
	Requeues  int `json:"requeues"`
	Preempts  int `json:"preempts"`
	Rescales  int `json:"rescales"`
	// RankSeconds is the virtual rank-time the tenant's jobs held.
	RankSeconds float64 `json:"rank_seconds"`
	// QueueWait summarizes the tenant's queue waits (seconds, virtual).
	QueueWait stats.Dist `json:"queue_wait"`
}

// Report is the hipmer-sched/v1 service-level report. Every field is
// derived from virtual time and deterministic counters — no wall clock
// — so two runs of the same workload at the same seed marshal to
// bit-identical bytes (the golden test pins this).
type Report struct {
	Schema       string `json:"schema"`
	Seed         int64  `json:"seed"`
	Ranks        int    `json:"ranks"`
	RanksPerNode int    `json:"ranks_per_node"`
	QueueCap     int    `json:"queue_cap"`

	Jobs      int `json:"jobs"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Rejected  int `json:"rejected"`

	Requeues    int `json:"requeues"`
	Preemptions int `json:"preemptions"`
	Rescales    int `json:"rescales"`

	// MakespanSeconds is the virtual time of the last scheduler event.
	MakespanSeconds float64 `json:"makespan_seconds"`
	// Utilization is busy rank-time over Ranks × makespan, in [0, 1].
	Utilization float64 `json:"utilization"`

	// QueueWait and Turnaround summarize per-job virtual queue wait
	// (arrival → first dispatch) and turnaround (arrival → completion),
	// in seconds, over admitted jobs that started / completed.
	QueueWait  stats.Dist `json:"queue_wait"`
	Turnaround stats.Dist `json:"turnaround"`

	// FairnessWaitGini is the Gini coefficient over per-tenant mean
	// queue waits; FairnessServiceGini over per-tenant rank-seconds
	// normalized by quota. Both near 0 = even service.
	FairnessWaitGini    float64 `json:"fairness_wait_gini"`
	FairnessServiceGini float64 `json:"fairness_service_gini"`

	// Tenants is sorted by name (deterministic order).
	Tenants []TenantReport `json:"tenants"`
}

const secs = float64(time.Second)

// buildReport derives the service report from the scheduler's terminal
// state. Tenant iteration uses the sorted name list, never map range.
func (s *Scheduler) buildReport() *Report {
	r := &Report{
		Schema:       Schema,
		Seed:         s.cfg.Seed,
		Ranks:        s.cfg.Ranks,
		RanksPerNode: s.cfg.RanksPerNode,
		QueueCap:     s.cfg.QueueCap,
		Jobs:         len(s.jobs),
		Rejected:     s.rejections,
		Requeues:     s.requeues,
		Preemptions:  s.preemptions,
		Rescales:     s.rescales,
	}
	var waits, turns []float64
	for _, j := range s.jobs {
		switch j.state {
		case StateCompleted:
			r.Completed++
			turns = append(turns, float64(j.done-j.arrival)/secs)
		case StateFailed:
			r.Failed++
		}
		if j.started {
			waits = append(waits, float64(j.firstStart-j.arrival)/secs)
		}
	}
	r.QueueWait = stats.NewDist(waits)
	r.Turnaround = stats.NewDist(turns)
	r.MakespanSeconds = float64(s.makespan) / secs
	if s.makespan > 0 {
		r.Utilization = float64(s.busyNs) / (float64(s.cfg.Ranks) * float64(s.makespan))
	}

	names := append([]string(nil), s.tenantOrder...)
	sort.Strings(names)
	var meanWaits, service []float64
	for _, name := range names {
		t := s.tenants[name]
		tw := make([]float64, len(t.waits))
		for i, w := range t.waits {
			tw[i] = w / secs
		}
		d := stats.NewDist(tw)
		r.Tenants = append(r.Tenants, TenantReport{
			Name: name, Quota: t.quota,
			Submitted: t.submitted, Completed: t.completed,
			Failed: t.failed, Rejected: t.rejected,
			Requeues: t.requeues, Preempts: t.preempts, Rescales: t.rescales,
			RankSeconds: float64(t.rankNs) / secs,
			QueueWait:   d,
		})
		if t.submitted > 0 {
			meanWaits = append(meanWaits, d.Mean)
			service = append(service, float64(t.rankNs)/secs/float64(t.quota))
		}
	}
	r.FairnessWaitGini = stats.NewDist(meanWaits).Gini
	r.FairnessServiceGini = stats.NewDist(service).Gini
	return r
}

// Marshal renders the report as stable indented JSON (trailing
// newline), the bytes the two-run golden test compares.
func (r *Report) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("sched: encoding report: %w", err)
	}
	return append(b, '\n'), nil
}

// WriteFile writes the report to path.
func (r *Report) WriteFile(path string) error {
	b, err := r.Marshal()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("sched: writing report: %w", err)
	}
	return nil
}

// FormatTable renders the human-readable service summary.
func (r *Report) FormatTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "service report (%s)  ranks=%d seed=%d\n", r.Schema, r.Ranks, r.Seed)
	fmt.Fprintf(&b, "  jobs %d: %d completed, %d failed, %d rejected  (requeues %d, preemptions %d, rescales %d)\n",
		r.Jobs, r.Completed, r.Failed, r.Rejected, r.Requeues, r.Preemptions, r.Rescales)
	fmt.Fprintf(&b, "  makespan %.3fs virtual, utilization %.1f%%\n", r.MakespanSeconds, 100*r.Utilization)
	fmt.Fprintf(&b, "  queue wait s: p50 %.4f p95 %.4f max %.4f   turnaround s: p50 %.4f p95 %.4f\n",
		r.QueueWait.P50, r.QueueWait.P95, r.QueueWait.Max, r.Turnaround.P50, r.Turnaround.P95)
	fmt.Fprintf(&b, "  fairness gini: wait %.3f service %.3f\n", r.FairnessWaitGini, r.FairnessServiceGini)
	fmt.Fprintf(&b, "  %-10s %5s %5s %5s %4s %4s %5s %5s %8s %9s\n",
		"tenant", "quota", "subm", "done", "fail", "rej", "requ", "pre", "wait-p95", "rank-sec")
	for _, t := range r.Tenants {
		fmt.Fprintf(&b, "  %-10s %5d %5d %5d %4d %4d %5d %5d %8.4f %9.3f\n",
			t.Name, t.Quota, t.Submitted, t.Completed, t.Failed, t.Rejected,
			t.Requeues, t.Preempts, t.QueueWait.P95, t.RankSeconds)
	}
	return b.String()
}
