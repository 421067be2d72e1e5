package expt

import (
	"strings"
	"testing"
)

// TestMetaSweepGate runs the iterative-k metagenome exhibit at tiny
// scale: strictly better low-quartile recovery than the single-k
// baseline and zero cross-species joins from the multi-k assembly.
func TestMetaSweepGate(t *testing.T) {
	skipIfShort(t)
	row, text, err := MetaSweep(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + text)
	if !row.Gate() {
		t.Fatalf("gate failed: %+v", row)
	}
	if !strings.Contains(text, "Iterative-k metagenome sweep") {
		t.Fatal("missing caption")
	}
}

// TestServeSweep runs a reduced heavy-traffic exhibit (the CI service
// job runs the full 1000-job version via benchsuite -serve) and then the
// storage-fault leg, and holds each to the gate its load derives.
func TestServeSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("service load exhibit (run by CI's service job at full scale)")
	}
	t.Parallel() // alongside TestMatrixAllGreen
	res, text, err := ServeSweep(20151115, ServeLoad(80, 8))
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + text)
	if err := res.Gate(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "hipmer-sched/v1") {
		t.Fatal("exhibit text missing schema header")
	}

	disk, text, err := ServeSweep(20151115, DiskServeLoad())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + text)
	if err := disk.Gate(); err != nil {
		t.Fatal(err)
	}
}

// TestAblationSuperKmersShape runs the transport ablation over the tiny
// core sweep: both paths keep identical tables, super-k-mers win on
// messages and bytes at every point, and the human row at the top of the
// sweep shows the headline >=5x message / >=3x byte reduction. Virtual
// time is printed, not asserted (ROADMAP item 3 owns that decision).
func TestAblationSuperKmersShape(t *testing.T) {
	skipIfShort(t)
	sc := tinyScale()
	sc.BenchHumanLen = 60000
	rows, text := AblationSuperKmers(sc)
	t.Log("\n" + text)
	if want := 2 * len(sc.Cores); len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.Kept != r.BaseKept {
			t.Errorf("%s@%d: kept %d != baseline %d", r.Dataset, r.Cores, r.Kept, r.BaseKept)
		}
		if r.MsgRatio() <= 1 {
			t.Errorf("%s@%d: message ratio %.2f not > 1", r.Dataset, r.Cores, r.MsgRatio())
		}
		if r.ByteRatio() <= 1 {
			t.Errorf("%s@%d: byte ratio %.2f not > 1", r.Dataset, r.Cores, r.ByteRatio())
		}
		if r.SuperKmers == 0 || r.SuperKmerBases == 0 || r.CommBytesSaved <= 0 {
			t.Errorf("%s@%d: super-k-mer counters not populated: %+v", r.Dataset, r.Cores, r)
		}
		if r.VirtualSec <= 0 || r.BaseVirtualSec <= 0 {
			t.Errorf("%s@%d: virtual times not populated: %+v", r.Dataset, r.Cores, r)
		}
	}
	top := rows[len(sc.Cores)-1]
	if top.Dataset != "human" || top.Cores != sc.Cores[len(sc.Cores)-1] {
		t.Fatalf("row %d is not human at the top of the sweep: %+v", len(sc.Cores)-1, top)
	}
	if top.MsgRatio() < 5 || top.ByteRatio() < 3 {
		t.Errorf("human@%d: message reduction %.2fx (want >=5x), byte reduction %.2fx (want >=3x)",
			top.Cores, top.MsgRatio(), top.ByteRatio())
	}
	for _, col := range []string{"virt(per-kmer)", "virt(superk)", "virt-ratio"} {
		if !strings.Contains(text, col) {
			t.Errorf("table lacks the %s column", col)
		}
	}
}
