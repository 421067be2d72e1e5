package sched

import (
	"reflect"
	"testing"

	"hipmer/internal/pipeline"
	"hipmer/internal/verify"
)

// TestGenJobsDiskFaultPairing: every disk-armed job the generator
// emits pairs the storage fault with a crash STRICTLY after the disk
// stage — otherwise the damaged segment would never be read back and
// the fault would exercise nothing.
func TestGenJobsDiskFaultPairing(t *testing.T) {
	specs, err := GenJobs(LoadConfig{Seed: 5, Tenants: 4, Jobs: 64, DiskFrac: 1}, fakeTemplates())
	if err != nil {
		t.Fatal(err)
	}
	stageIdx := map[string]map[string]int{}
	for _, tpl := range fakeTemplates() {
		idx := map[string]int{}
		for i, name := range pipeline.StageNames(tpl.Pipeline) {
			idx[name] = i
		}
		stageIdx[tpl.Name] = idx
	}
	armed := 0
	for _, spec := range specs {
		if spec.DiskFaultSeed == 0 {
			continue
		}
		armed++
		idx := stageIdx[spec.Name]
		di, ok := idx[spec.DiskFailStage]
		if !ok || di == 0 {
			t.Fatalf("job %s: disk stage %q is not a checkpointable stage", spec.Name, spec.DiskFailStage)
		}
		if spec.FaultSeed == 0 || spec.FailStage == "" {
			t.Fatalf("job %s: disk fault armed without a paired crash", spec.Name)
		}
		fi, ok := idx[spec.FailStage]
		if !ok {
			t.Fatalf("job %s: paired crash stage %q unknown", spec.Name, spec.FailStage)
		}
		if fi <= di {
			t.Fatalf("job %s: crash in %q (stage %d) not strictly after disk fault in %q (stage %d)",
				spec.Name, spec.FailStage, fi, spec.DiskFailStage, di)
		}
	}
	if armed != len(specs) {
		t.Fatalf("DiskFrac 1 armed %d/%d jobs", armed, len(specs))
	}
}

// TestGenJobsDiskFracZero: with the knob off no job is disk-armed and
// the non-disk draw stream is untouched — the specs match a pre-knob
// generator call field for field (workloads drawn before the knob
// existed stay reproducible).
func TestGenJobsDiskFracZero(t *testing.T) {
	lc := LoadConfig{Seed: 5, Tenants: 4, Jobs: 64, FaultFrac: 0.2, ChaosFrac: 0.2}
	specs, err := GenJobs(lc, fakeTemplates())
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		if spec.DiskFaultSeed != 0 || spec.DiskFailStage != "" {
			t.Fatalf("job %s disk-armed with DiskFrac 0", spec.Name)
		}
	}
	again, err := GenJobs(lc, fakeTemplates())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(specs, again) {
		t.Fatal("generator is not deterministic")
	}
}

// TestDiskFaultJobHealsInService runs a disk-armed job through the full
// scheduler next to a healthy neighbour: the disk job requeues once,
// heals, and both assemblies stay bit-identical to solo runs. The healing
// attempt's report says what it held its ranks for: the intact stage
// loaded, the damage scrubbed, everything from the damaged stage on
// recomputed.
func TestDiskFaultJobHealsInService(t *testing.T) {
	if testing.Short() {
		t.Skip("real-pipeline service test")
	}
	tpls, err := DefaultTemplates(20151115, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	disk := templateSpec(t, tpls, "human-s", "acme")
	disk.DiskFaultSeed = 21
	disk.DiskFailStage = "contig-generation"
	disk.FaultSeed = 7
	disk.FailStage = "scaffolding"
	specs := []JobSpec{disk, templateSpec(t, tpls, "wheat-s", "bio")}

	cfg := Config{Ranks: 16, RanksPerNode: 8, Seed: 3, DefaultQuota: 12, CkptRoot: t.TempDir()}
	s, err := New(cfg, &PipelineRunner{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Jobs[0].State != StateCompleted {
		t.Fatalf("disk-armed job state %q: %s", out.Jobs[0].State, out.Jobs[0].Reason)
	}
	if out.Jobs[0].Requeues == 0 {
		t.Fatal("disk-armed job completed without its paired crash requeue")
	}
	if out.Jobs[1].Requeues != 0 {
		t.Fatal("healthy neighbour was requeued")
	}
	healed := out.Jobs[0].Metrics
	for _, span := range []string{"checkpoint-load:kmer-analysis", "checkpoint-scrub", "contig-generation", "scaffolding", "gap-closing"} {
		if healed.Stage(span) == nil {
			t.Errorf("healing attempt's report has no %s span", span)
		}
	}
	for _, span := range []string{"kmer-analysis", "checkpoint-load:contig-generation"} {
		if healed.Stage(span) != nil {
			t.Errorf("healing attempt's report has a %s span", span)
		}
	}
	for i, jr := range out.Jobs {
		final := jr.RanksUsed[len(jr.RanksUsed)-1]
		solo := soloRun(t, specs[i], final, 8)
		if !verify.EqualSets(verify.CanonicalSet(jr.Seqs), verify.CanonicalSet(solo)) {
			t.Fatalf("job %d (%s) assembly differs from its solo run", i, jr.Name)
		}
	}
}
