package expt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hipmer/internal/sched"
)

// TestMetaSweepGate runs the iterative-k metagenome exhibit at tiny
// scale: strictly better low-quartile recovery than the single-k
// baseline and zero cross-species joins from the multi-k assembly.
func TestMetaSweepGate(t *testing.T) {
	skipIfShort(t)
	row, text, err := NewRunner(tinyScale()).MetaSweep()
	if err != nil {
		t.Fatal(err)
	}
	if !row.Gate() {
		t.Fatalf("gate failed: %+v", row)
	}
	golden(t, "meta", text)
}

// TestServeSweep runs a reduced heavy-traffic exhibit (the CI service
// job runs the full 1000-job version via benchsuite -serve) and then the
// storage-fault leg, and holds each to the gate its load derives.
func TestServeSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("service load exhibit (run by CI's service job at full scale)")
	}
	t.Parallel() // alongside TestMatrixAllGreen
	res, text, err := ServeSweep(20151115, sched.ServeLoad(80, 8))
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

// TestExperimentsDocMatchesGolden holds every number EXPERIMENTS.md shows
// to the committed `benchsuite -all` output (`make exhibits`): the fenced
// block after a `<!-- exhibit: CAPTION -->` marker must be exactly the
// golden's tables whose first line starts with CAPTION, and every table
// of the golden must be quoted by some marker, so a new exhibit cannot
// go undocumented. -update re-splices the blocks.
func TestExperimentsDocMatchesGolden(t *testing.T) {
	const doc = "../../EXPERIMENTS.md"
	b, err := os.ReadFile(filepath.Join("testdata", "exhibits_small.txt"))
	if err != nil {
		t.Fatal(err)
	}
	// The golden's tables: its blank-line-separated blocks after the header.
	blocks := strings.Split(strings.TrimSpace(string(b)), "\n\n")[1:]
	if b, err = os.ReadFile(doc); err != nil {
		t.Fatal(err)
	}
	parts := strings.Split(string(b), "\n<!-- exhibit: ")
	quoted := make([]bool, len(blocks))
	for i, part := range parts[1:] {
		caption, rest, ok := strings.Cut(part, " -->\n\n```\n")
		body, tail, ok2 := strings.Cut(rest, "```\n")
		if !ok || !ok2 {
			t.Fatalf("marker %d is not followed by a blank line and a fenced block: %.60q", i+1, part)
		}
		var want []string
		for j, blk := range blocks {
			if strings.HasPrefix(blk, caption) {
				want = append(want, blk)
				quoted[j] = true
			}
		}
		if len(want) == 0 {
			t.Errorf("exhibit %q: no table of testdata/exhibits_small.txt starts with that caption", caption)
			continue
		}
		text := strings.Join(want, "\n\n") + "\n"
		if *update {
			parts[i+1] = caption + " -->\n\n```\n" + text + "```\n" + tail
		} else if body != text {
			t.Errorf("exhibit %q differs from testdata/exhibits_small.txt (`make exhibits` re-splices it)\ndoc:\n%sgolden:\n%s", caption, body, text)
		}
	}
	for j, blk := range blocks {
		if !quoted[j] {
			t.Errorf("EXPERIMENTS.md quotes no exhibit for the table %q", strings.SplitN(blk, "\n", 2)[0])
		}
	}
	if *update {
		if err := os.WriteFile(doc, []byte(strings.Join(parts, "\n<!-- exhibit: ")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
