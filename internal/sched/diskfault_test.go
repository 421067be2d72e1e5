package sched

import (
	"reflect"
	"testing"

	"hipmer/internal/pipeline"
	"hipmer/internal/verify"
	"hipmer/internal/xrt"
)

func TestTrimBilledAt(t *testing.T) {
	prefix := []string{"io", "kmer-analysis", "contig-generation", "scaffolding"}
	cases := []struct {
		name  string
		stage string
		want  []string
	}{
		{"cuts-at-disk-stage", "contig-generation", []string{"io", "kmer-analysis"}},
		{"cuts-to-empty", "io", []string{}},
		{"stage-not-in-prefix", "gap-closing", prefix},
		{"cuts-last", "scaffolding", []string{"io", "kmer-analysis", "contig-generation"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := trimBilledAt(prefix, c.stage)
			if len(got) != len(c.want) {
				t.Fatalf("trimBilledAt = %v, want %v", got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("trimBilledAt = %v, want %v", got, c.want)
				}
			}
		})
	}
	if got := trimBilledAt(nil, "io"); len(got) != 0 {
		t.Fatalf("trimBilledAt(nil) = %v", got)
	}
}

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

// TestDiskFaultBillingTrim drives the real runner directly: an attempt
// that both damages a checkpoint stage and crashes later must report a
// billed rehydration prefix that stops strictly before the disk stage
// (the requeued resume pays to recompute it), and the disarmed resume
// must scrub, heal, and match a solo run.
func TestDiskFaultBillingTrim(t *testing.T) {
	if testing.Short() {
		t.Skip("real-pipeline runner test")
	}
	tpls, err := DefaultTemplates(20151115, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var humanS Template
	for _, tpl := range tpls {
		if tpl.Name == "human-s" {
			humanS = tpl
		}
	}
	spec := JobSpec{
		Tenant: "acme", Name: humanS.Name, Libs: humanS.Libs, Pipeline: humanS.Pipeline,
		Ranks: 8, Seed: humanS.Seed,
		Inject: xrt.Inject{
			FaultSeed: 7, FailStage: "scaffolding",
			DiskFaultSeed: 21, DiskFailStage: "contig-generation",
		},
	}
	r := &PipelineRunner{}
	dir := t.TempDir()
	att := Attempt{
		JobID: 0, Attempt: 1, Ranks: 8, RanksPerNode: 8, CkptDir: dir,
		Inject: spec.Inject,
	}
	out := r.Run(spec, att)
	if !out.Failed || out.Fatal {
		t.Fatalf("armed attempt outcome: %+v", out)
	}
	for _, st := range out.BilledDone {
		if st == spec.DiskFailStage || st == spec.FailStage {
			t.Fatalf("billed prefix %v includes damaged/failed stage", out.BilledDone)
		}
	}
	found := false
	for _, st := range out.BilledDone {
		if st == "kmer-analysis" {
			found = true
		}
	}
	if !found {
		t.Fatalf("billed prefix %v lost the intact stage before the damage", out.BilledDone)
	}

	// Requeue: disarmed resume from the damaged directory.
	out2 := r.Run(spec, Attempt{
		JobID: 0, Attempt: 2, Ranks: 8, RanksPerNode: 8, CkptDir: dir,
		Resume: true, BilledDone: out.BilledDone,
	})
	if out2.Failed || out2.Fatal {
		t.Fatalf("healing resume failed: %+v", out2)
	}
	solo := soloRun(t, JobSpec{
		Name: spec.Name, Libs: spec.Libs, Pipeline: spec.Pipeline, Seed: spec.Seed,
	}, 8, 8)
	if !verify.EqualSets(verify.CanonicalSet(out2.Seqs), verify.CanonicalSet(solo)) {
		t.Fatal("healed resume's assembly differs from the solo run")
	}
}

// TestDiskFaultJobHealsInService runs a disk-armed job through the full
// scheduler next to a healthy neighbour: the disk job requeues once,
// heals, and both assemblies stay bit-identical to solo runs.
func TestDiskFaultJobHealsInService(t *testing.T) {
	if testing.Short() {
		t.Skip("real-pipeline service test")
	}
	tpls, err := DefaultTemplates(20151115, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]Template)
	for _, tpl := range tpls {
		byName[tpl.Name] = tpl
	}
	mk := func(name, tenant string) JobSpec {
		tpl := byName[name]
		return JobSpec{
			Tenant: tenant, Name: name, Libs: tpl.Libs, Pipeline: tpl.Pipeline,
			Ranks: tpl.Ranks, Seed: tpl.Seed,
		}
	}
	disk := mk("human-s", "acme")
	disk.DiskFaultSeed = 21
	disk.DiskFailStage = "contig-generation"
	disk.FaultSeed = 7
	disk.FailStage = "scaffolding"
	specs := []JobSpec{disk, mk("wheat-s", "bio")}

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
	for i, jr := range out.Jobs {
		final := jr.RanksUsed[len(jr.RanksUsed)-1]
		solo := soloRun(t, specs[i], final, 8)
		if !verify.EqualSets(verify.CanonicalSet(jr.Seqs), verify.CanonicalSet(solo)) {
			t.Fatalf("job %d (%s) assembly differs from its solo run", i, jr.Name)
		}
	}
}
