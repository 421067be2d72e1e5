package metrics_test

import (
	"testing"

	"hipmer/internal/xrt"
)

// TestCommConservation checks that the span accounting loses nothing:
// for every rank, the communication deltas recorded by the top-level
// stage spans sum exactly to the team's end-to-end totals (CommStats is
// integral, so the comparison is field-exact), and the busy-time deltas
// sum exactly to the rank's cumulative work (whole nanoseconds). A leak
// here would mean some stage's traffic is invisible in the breakdown.
func TestCommConservation(t *testing.T) {
	_, team := toyRun(t, 0)
	p := team.Config().Ranks
	sums := make([]xrt.CommStats, p)
	work := make([]int64, p)
	for _, sp := range team.Spans() {
		if sp.Depth != 0 {
			continue
		}
		if len(sp.Ranks) != p {
			t.Fatalf("span %q has %d rank deltas, want %d", sp.Path, len(sp.Ranks), p)
		}
		for i, rd := range sp.Ranks {
			sums[i].Add(rd.Comm)
			work[i] += int64(rd.WorkNs)
		}
	}
	for i := 0; i < p; i++ {
		if sums[i] != team.RankStats(i) {
			t.Errorf("rank %d: depth-0 span comm sums %+v != end-to-end totals %+v",
				i, sums[i], team.RankStats(i))
		}
		if total := team.RankWorkNs(i); work[i] != total {
			t.Errorf("rank %d: span work sums %d ns != total work %d ns", i, work[i], total)
		}
	}
}

// TestSubSpanContainment checks the nesting invariant: a sub-span's
// per-rank communication never exceeds its parent stage's.
func TestSubSpanContainment(t *testing.T) {
	res, _ := toyRun(t, 0)
	rep := res.Metrics
	for _, st := range rep.Stages {
		if st.Depth == 0 {
			continue
		}
		parent := rep.Stage(st.Path[:lastSlash(st.Path)])
		if parent == nil {
			t.Fatalf("sub-span %q has no parent span", st.Path)
		}
		for i, rm := range st.PerRank {
			pm := parent.PerRank[i]
			if rm.Lookups > pm.Lookups || rm.Msgs > pm.Msgs ||
				rm.Bytes > pm.Bytes || rm.WorkNs > pm.WorkNs {
				t.Errorf("sub-span %q rank %d exceeds parent %q: %+v > %+v",
					st.Path, i, parent.Path, rm, pm)
			}
		}
	}
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return 0
}

// TestSpeculativeTraversalCounters pins the speculative-traversal
// identity: no walk gives its claims back, so every walk that claims a
// seed completes — as a contig or a fragment of one — and claims ==
// completed, by construction.
func TestSpeculativeTraversalCounters(t *testing.T) {
	res, _ := toyRun(t, 0)
	st := res.Metrics.Stage("contig-generation/traverse")
	if st == nil {
		t.Fatal("no contig-generation/traverse span")
	}
	c := st.Counters
	if c["walks_claimed"] == 0 {
		t.Fatal("no claimed walks recorded")
	}
	if c["walks_claimed"] != c["walks_completed"] || res.Contigs.Aborted != 0 {
		t.Errorf("claims %d != completed %d, or %d aborts",
			c["walks_claimed"], c["walks_completed"], res.Contigs.Aborted)
	}
	// The counters must agree with the stage result's own tallies.
	if res.Contigs.Claimed != c["walks_claimed"] || res.Contigs.Completed != c["walks_completed"] {
		t.Errorf("span counters (%d/%d) disagree with contig.Result (%d/%d)",
			c["walks_claimed"], c["walks_completed"], res.Contigs.Claimed, res.Contigs.Completed)
	}
}

// TestVirtualTimeAccounting checks that the report's end-to-end virtual
// time equals both the team clock and the sum of the top-level stage
// spans, to the nanosecond — the stages tile the run.
func TestVirtualTimeAccounting(t *testing.T) {
	res, team := toyRun(t, 0)
	rep := res.Metrics
	if rep.VirtualNs != int64(team.VirtualNow()) {
		t.Errorf("report VirtualNs %d != team clock %d", rep.VirtualNs, int64(team.VirtualNow()))
	}
	var sum int64
	for _, st := range rep.Stages {
		if st.Depth == 0 {
			sum += st.VirtualNs
		}
	}
	if sum != rep.VirtualNs {
		t.Errorf("depth-0 stage virtual times sum to %d, report total %d", sum, rep.VirtualNs)
	}
}
