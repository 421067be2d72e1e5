package metrics_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hipmer/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden files")

// compareGolden checks got against the named golden file, rewriting it
// under -update.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report JSON differs from golden %s\n%s\n(regenerate with -update if the schema change is intentional)",
			golden, firstDiff(got, want))
	}
}

// TestGoldenSyntheticReport pins the full numeric schema on the
// deterministic synthetic workload: every field except wall clocks is
// reproducible across any goroutine interleaving, so the golden holds
// real virtual times, comm counts, and imbalance statistics.
func TestGoldenSyntheticReport(t *testing.T) {
	rep := syntheticRun(0)
	got, err := rep.ZeroWall().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "synthetic_report.json", got)
}

// TestGoldenToyReport pins the report of a real 4-rank toy assembly in
// full — every span's virtual time, comm, per-rank numbers and counters;
// only the wall clocks are zeroed (DESIGN.md §9) — so schema drift,
// semantic drift and a changed charge all surface as a reviewed diff.
func TestGoldenToyReport(t *testing.T) {
	res, _ := toyRun(t, 0)
	rep := res.Metrics

	// Structural assertions first, so a failure explains itself better
	// than a byte diff.
	if rep.Schema != metrics.Schema {
		t.Errorf("schema = %q, want %q", rep.Schema, metrics.Schema)
	}
	if rep.Ranks != 4 || rep.RanksPerNode != 2 {
		t.Errorf("ranks = %d/%d, want 4/2", rep.Ranks, rep.RanksPerNode)
	}
	if rep.WallNs <= 0 {
		t.Errorf("pre-ZeroWall report has WallNs = %d, want > 0", rep.WallNs)
	}
	if rep.VirtualNs <= 0 {
		t.Errorf("report VirtualNs = %d, want > 0", rep.VirtualNs)
	}
	for _, path := range []string{
		"io", "kmer-analysis", "contig-generation", "scaffolding", "gap-closing",
		"kmer-analysis/count", "contig-generation/traverse",
		"scaffolding/merAligner", "gap-closing/close",
	} {
		st := rep.Stage(path)
		if st == nil {
			t.Fatalf("missing stage span %q", path)
		}
		if len(st.PerRank) != 4 {
			t.Errorf("stage %q has %d per-rank entries, want 4", path, len(st.PerRank))
		}
	}
	depth0 := 0
	for _, st := range rep.Stages {
		if st.Depth == 0 {
			depth0++
		}
		if st.Imbalance.Mean > 0 && st.Imbalance.MaxOverMean < 1 {
			t.Errorf("stage %q: max/mean = %v < 1", st.Path, st.Imbalance.MaxOverMean)
		}
	}
	if depth0 != 5 {
		t.Errorf("%d top-level stage spans, want 5 (io, kmer, contig, scaffold, gapclose)", depth0)
	}
	tr := rep.Stage("contig-generation/traverse")
	if tr.Counters["walks_claimed"] == 0 {
		t.Error("traverse span recorded no claimed walks")
	}

	got, err := rep.ZeroWall().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "toy_report.json", got)
}

// firstDiff renders the first differing line of two texts.
func firstDiff(got, want []byte) string {
	gl := bytes.Split(got, []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(gl), len(wl))
}

// TestZeroWallIsDeepCopy guards the golden comparison's canonicalizer:
// zeroing the copy must leave the original untouched.
func TestZeroWallIsDeepCopy(t *testing.T) {
	res, _ := toyRun(t, 0)
	rep := res.Metrics
	origWall := rep.WallNs
	cp := rep.ZeroWall()
	if cp.WallNs != 0 {
		t.Errorf("copy WallNs = %d, want 0", cp.WallNs)
	}
	for _, st := range cp.Stages {
		if st.WallNs != 0 {
			t.Errorf("copy stage %q WallNs = %d, want 0", st.Path, st.WallNs)
		}
	}
	if rep.WallNs != origWall {
		t.Error("ZeroWall mutated the original report")
	}
	cp.Stages[0].PerRank[0].WorkNs = -1
	if rep.Stages[0].PerRank[0].WorkNs == -1 {
		t.Error("ZeroWall shares PerRank slices with the original")
	}
	if tc := cp.Stage("contig-generation/traverse"); tc != nil && tc.Counters != nil {
		before := rep.Stage("contig-generation/traverse").Counters["walks_claimed"]
		tc.Counters["walks_claimed"] = -1
		if rep.Stage("contig-generation/traverse").Counters["walks_claimed"] != before {
			t.Error("ZeroWall shares Counters maps with the original")
		}
	}
}

// TestReadWriteRoundTrip covers both on-disk forms: the single report
// (hipmer -metrics-out) and the report array (benchsuite -metrics-out).
func TestReadWriteRoundTrip(t *testing.T) {
	res, _ := toyRun(t, 0)
	rep := res.Metrics.ZeroWall()
	dir := t.TempDir()

	single := filepath.Join(dir, "one.json")
	if err := rep.WriteFile(single); err != nil {
		t.Fatal(err)
	}
	got, err := metrics.ReadFile(single)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Schema != metrics.Schema || len(got[0].Stages) != len(rep.Stages) {
		t.Fatalf("single round-trip: got %d reports", len(got))
	}

	many := filepath.Join(dir, "many.json")
	if err := metrics.WriteFileAll(many, []*metrics.Report{rep, rep}); err != nil {
		t.Fatal(err)
	}
	got, err = metrics.ReadFile(many)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].VirtualNs != rep.VirtualNs {
		t.Fatalf("array round-trip: got %d reports", len(got))
	}
}

// TestFormatTable smoke-tests the human rendering: every top-level stage
// appears, and no NaN/Inf leaks into the text.
func TestFormatTable(t *testing.T) {
	res, _ := toyRun(t, 0)
	text := res.Metrics.FormatTable()
	for _, want := range []string{"io", "kmer-analysis", "contig-generation",
		"scaffolding", "gap-closing", "merAligner"} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Errorf("table missing %q:\n%s", want, text)
		}
	}
	for _, bad := range []string{"NaN", "Inf"} {
		if bytes.Contains([]byte(text), []byte(bad)) {
			t.Errorf("table contains %s:\n%s", bad, text)
		}
	}
}
