package expt

import (
	"os"
	"strings"
	"testing"

	"hipmer/internal/xrt"
)

// skipIfShort gates the exhibit sweeps out of `go test -short` (the quick
// `make verify` gate): each regenerates a full table or figure. The plain
// `make test` / tier-1 run still executes all of them.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("exhibit sweep; run without -short")
	}
}

// TestMatrixAllGreen runs every scenario group at tiny scale; the groups
// share one runner so each fault-free baseline is computed once. It is
// not -short-gated: like the sweeps it replaced, it is what makes `go
// test -short ./...` (and so `make verify`) exercise every injection. CI
// runs the rescale group under -race through it.
func TestMatrixAllGreen(t *testing.T) {
	t.Parallel() // alongside TestServeSweep: both assert only input-determined facts
	sc := tinyScale()
	// Assemble at the production k: the 21-mer tiny scale trades accuracy
	// for speed, and the oracle (correctly) flags the occasional misjoin a
	// 21-mer assembly of the repeat-bearing human genome produces.
	sc.K = 31
	m := NewRunner(sc)
	for _, group := range Groups() {
		t.Run(group, func(t *testing.T) {
			cells, err := Cells(group)
			if err != nil {
				t.Fatal(err)
			}
			rows, reports, text := m.Matrix(cells)
			t.Logf("\n%s", text)
			if len(rows) == 0 {
				t.Fatal("no rows")
			}
			for _, r := range rows {
				for _, f := range r.Fail() {
					t.Error(f)
				}
			}
			if len(reports) != len(cells) {
				t.Errorf("%d metrics reports for %d cells", len(reports), len(cells))
			}
		})
	}
}

// TestCellsCoverParent proves the matrix lost nothing: every run the six
// hand-written sweeps made (testdata/cells_parent.txt) is still a cell or
// a cached baseline, and the cross group's cells are new.
func TestCellsCoverParent(t *testing.T) {
	cells, err := Cells(Groups()...)
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, c := range cells {
		have[c.String()] = true
		have["base "+c.baselineKey()] = true
	}
	b, err := os.ReadFile("testdata/cells_parent.txt")
	if err != nil {
		t.Fatal(err)
	}
	parent := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		parent[line] = true
		if !have[line] {
			t.Errorf("parent run no longer in the matrix: %s", line)
		}
	}
	var added int
	for _, c := range cells {
		isNew := !parent[c.String()]
		if isNew {
			added++
		}
		if (c.Group == "cross") != isNew {
			t.Errorf("cell %q: new=%v, but only the cross group should be new", c, isNew)
		}
	}
	if added == 0 {
		t.Error("no cross-product cell beyond the parent's coverage")
	}
	t.Logf("parent: %d runs; matrix: %d cells + baselines = %d runs, %d of them new",
		len(parent), len(cells), len(have), len(have)-len(parent))
}

// TestMatrixCanFail shows a row can go red — against the wrong baseline
// or a differently timed one, when an armed injection left no trace, when
// a crash never fires, on a dataset name nobody generates — and that an
// exhibit whose run fails returns the error.
func TestMatrixCanFail(t *testing.T) {
	sc := tinyScale()
	m := NewRunner(sc)
	wantFail := func(res CellResult, substr string) {
		t.Helper()
		if !strings.Contains(strings.Join(res.Fail, "\n"), substr) {
			t.Errorf("%s: want a failure mentioning %q, got %q", res.Cell, substr, res.Fail)
		}
	}

	cell := Cell{Group: "neg", Dataset: "human", Mode: contigsMode, Ranks: 4, Inject: xrt.Inject{PerturbSeed: 1}}
	obs := m.observe(cell, nil)
	if res := judge(cell, m.baseline(cell), obs); len(res.Fail) != 0 {
		t.Fatalf("control cell is red: %q", res.Fail)
	}
	wheat := cell
	wheat.Dataset = "wheat"
	wantFail(judge(cell, m.baseline(wheat), obs), "assembly differs")
	// A perturbed schedule may not move the clock: the same assembly
	// against a baseline one nanosecond slower is red.
	slower := *m.baseline(cell)
	slower.virtualSec += 1e-9
	wantFail(judge(cell, &slower, obs), "differ from the fault-free run")

	// Armed but lossless transport: green as declared, red once the cell
	// claims a drop rate the run never had.
	quiet := cell
	quiet.Inject.ChaosSeed = 21
	obs = m.observe(quiet, nil)
	if res := judge(quiet, m.baseline(quiet), obs); len(res.Fail) != 0 {
		t.Fatalf("lossless chaos cell is red: %q", res.Fail)
	}
	lossy := quiet
	lossy.Inject.DropRate = 0.05
	wantFail(judge(lossy, m.baseline(lossy), obs), "drops/retries/dups = 0/0/0")

	// An armed crash that never fires is a red cell: scaffolding never runs
	// under ContigsOnly, and a countdown of 3 charges outlives a
	// pseudo-merge stage of one charge per rank, so that run completes and
	// its resume rehydrates a whole checkpoint.
	vacuous := cell
	vacuous.Inject.FaultSeed, vacuous.Inject.FailStage = 11, "scaffolding"
	vacuous.Resume = &Resume{Ranks: 4}
	late := Cell{Group: "neg", Dataset: "human", Mode: ladderMode, Ranks: 4,
		Inject: xrt.Inject{FaultSeed: 191, FailStage: "pseudo-merge-k33"}, Resume: &Resume{Ranks: 4}}
	rows, _, text := m.Matrix([]Cell{vacuous, late})
	if len(rows) != 2 {
		t.Fatalf("%d rows for 2 cells of different modes", len(rows))
	}
	for _, r := range rows {
		wantFail(r.Cells[0], "no crash")
	}
	if !strings.Contains(text, "FAILED") {
		t.Errorf("table does not show the red row:\n%s", text)
	}

	// A dataset nobody generates is a red row and an error, not a panic.
	bogus := cell
	bogus.Dataset = "yeast"
	wantFail(judge(bogus, m.baseline(bogus), m.observe(bogus, nil)), "unknown dataset")
	if _, err := m.RunSweep("yeast"); err == nil {
		t.Error("RunSweep accepted an unknown dataset")
	}
	// The same error under the metagenome's name reaches Table 3's
	// caller, and a scale the pipeline refuses reaches Compare's: neither
	// panics nor prints a shorter table.
	m.data["meta"] = m.dataset("yeast")
	if _, _, err := m.Table3(); err == nil || !strings.Contains(err.Error(), "unknown dataset") {
		t.Errorf("Table3 on a dataset that failed to generate: error %v", err)
	}
	evenK := sc
	evenK.K = 32
	if _, _, err := Compare(evenK); err == nil || !strings.Contains(err.Error(), "must be odd") {
		t.Errorf("Compare at an even k: error %v", err)
	}
}
