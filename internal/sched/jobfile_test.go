package sched

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hipmer/internal/xrt"
)

func TestParseJobFile(t *testing.T) {
	dir := t.TempDir()
	// A reads-based entry referencing a relative FASTQ path.
	if _, err := DefaultTemplates(5, dir); err != nil { // materializes human-s.fastq
		t.Fatal(err)
	}
	path := filepath.Join(dir, "jobs.json")
	body := `[
  {"tenant": "acme", "name": "h", "dataset": {"kind": "human", "len": 2000, "coverage": 12, "seed": 7},
   "k": 21, "ranks": 4, "priority": 1, "arrival_ms": 5, "seed": 3},
  {"tenant": "bio", "dataset": {"kind": "metagenome", "seed": 2}, "ranks": 8},
  {"tenant": "bio", "name": "file", "reads": [{"path": "human-s.fastq", "insert": 395}], "k": 21, "ranks": 4,
   "fail_stage": "contig-generation", "fault_seed": 9,
   "disk_fault_seed": 21, "disk_fail_stage": "kmer-analysis", "perturb_seed": 5}
]`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	specs, err := ParseJobFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("parsed %d specs, want 3", len(specs))
	}
	if specs[0].Tenant != "acme" || specs[0].Pipeline.K != 21 || specs[0].Ranks != 4 ||
		specs[0].Priority != 1 || specs[0].Arrival != 5*time.Millisecond || specs[0].Seed != 3 {
		t.Fatalf("spec 0 mismatch: %+v", specs[0])
	}
	if len(specs[0].Libs) == 0 || len(specs[0].Libs[0].Records) == 0 {
		t.Fatal("spec 0 has no simulated reads")
	}
	if !specs[1].Pipeline.ContigsOnly {
		t.Fatal("metagenome dataset did not default to contigs-only")
	}
	if specs[1].Name != "job1" {
		t.Fatalf("spec 1 default name %q", specs[1].Name)
	}
	if got := specs[2].Libs[0].Path; got != filepath.Join(dir, "human-s.fastq") {
		t.Fatalf("relative read path resolved to %q", got)
	}
	// Every arming key reaches the spec: the entry shares xrt.Inject, so
	// none can be left out of the file format.
	want := xrt.Inject{FailStage: "contig-generation", FaultSeed: 9,
		DiskFaultSeed: 21, DiskFailStage: "kmer-analysis", PerturbSeed: 5}
	if specs[2].Inject != want {
		t.Fatalf("spec 2 arming = %+v, want %+v", specs[2].Inject, want)
	}

	for name, bad := range map[string]string{
		"missing tenant": `[{"name": "x", "ranks": 4, "dataset": {"kind": "human"}}]`,
		"no dataset":     `[{"tenant": "a", "ranks": 4}]`,
		"bad kind":       `[{"tenant": "a", "ranks": 4, "dataset": {"kind": "ecoli"}}]`,
		"empty":          `[]`,
		"not json":       `{{`,
	} {
		p := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(p, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseJobFile(p); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ParseJobFile(filepath.Join(dir, "absent.json")); err == nil ||
		!strings.Contains(err.Error(), "reading job file") {
		t.Fatalf("missing file error: %v", err)
	}
}
