package sched

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"hipmer/internal/ckpt"
	"hipmer/internal/pipeline"
	"hipmer/internal/verify"
	"hipmer/internal/xrt"
)

// soloRun assembles a spec alone on a fresh machine at the given rank
// count — the reference output for the service's bit-identity
// guarantee.
func soloRun(t *testing.T, spec JobSpec, ranks, ranksPerNode int) [][]byte {
	t.Helper()
	team := xrt.NewTeam(xrt.Config{Ranks: ranks, RanksPerNode: ranksPerNode, Seed: spec.Seed})
	res, err := pipeline.Run(team, spec.Libs, spec.Pipeline)
	if err != nil {
		t.Fatalf("solo run of %s: %v", spec.Name, err)
	}
	return res.FinalSeqs
}

// TestCrossJobIsolation is the isolation satellite on the real
// pipeline: a shared cluster runs healthy jobs next to one with an
// injected mid-pipeline rank crash and one with a chaos plan that
// exhausts its retry budget. The faulted jobs must requeue and complete
// from their own checkpoints, and every job's assembly must be
// bit-identical to a solo run of the same spec — the neighbours never
// see the faults. A second pass of the whole schedule pins report
// determinism with real pipelines in the loop.
func TestCrossJobIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("real-pipeline service test")
	}
	tmp := t.TempDir()
	tpls, err := DefaultTemplates(20151115, tmp)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name, tenant string, arrival time.Duration) JobSpec {
		spec := templateSpec(t, tpls, name, tenant)
		spec.Arrival = arrival
		return spec
	}
	crash := mk("human-s", "acme", 0)
	crash.FaultSeed = 7
	crash.FailStage = "contig-generation"
	chaos := mk("wheat-s", "bio", time.Millisecond)
	chaos.ChaosSeed = 11
	chaos.DropRate = 0.5
	chaos.RetryBudget = 1
	specs := []JobSpec{
		crash,
		chaos,
		mk("human-s", "bio", 2*time.Millisecond),
		mk("human-m", "acme", 3*time.Millisecond),
		mk("meta-s", "acme", 4*time.Millisecond),
	}

	run := func() *Outcome {
		cfg := Config{Ranks: 16, RanksPerNode: 8, Seed: 3, DefaultQuota: 12, CkptRoot: t.TempDir()}
		s, err := New(cfg, &PipelineRunner{})
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Run(specs)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	out := run()

	for i, jr := range out.Jobs {
		if jr.State != StateCompleted {
			t.Fatalf("job %d (%s) state %q: %s", i, jr.Name, jr.State, jr.Reason)
		}
		final := jr.RanksUsed[len(jr.RanksUsed)-1]
		solo := soloRun(t, specs[i], final, 8)
		if !verify.EqualSets(verify.CanonicalSet(jr.Seqs), verify.CanonicalSet(solo)) {
			t.Fatalf("job %d (%s, tenant %s) assembly differs from its solo run at %d ranks",
				i, jr.Name, jr.Tenant, final)
		}
	}
	if out.Jobs[0].Requeues == 0 {
		t.Fatal("crash-armed job completed without a requeue")
	}
	if out.Jobs[1].Requeues == 0 {
		t.Fatal("chaos-exhaustion job completed without a requeue")
	}
	for i := 2; i < len(out.Jobs); i++ {
		if out.Jobs[i].Requeues != 0 {
			t.Fatalf("healthy job %d was requeued %d times", i, out.Jobs[i].Requeues)
		}
	}

	// Determinism with real pipelines: a second pass of the identical
	// schedule yields bit-identical report bytes.
	b1, err := out.Report.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := run().Report.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("real-pipeline schedule not deterministic:\n--- run 1\n%s\n--- run 2\n%s", b1, b2)
	}
}

// TestPreemptionResumesFromTruncatedCkpt drives a real preemption: a
// low-priority job is preempted by a high-priority arrival, its
// checkpoint truncated to the stages completed at the boundary, and the
// resumed job's output stays bit-identical to a solo run.
func TestPreemptionResumesFromTruncatedCkpt(t *testing.T) {
	if testing.Short() {
		t.Skip("real-pipeline service test")
	}
	tmp := t.TempDir()
	tpls, err := DefaultTemplates(20151115, tmp)
	if err != nil {
		t.Fatal(err)
	}
	var humanM, wheatS Template
	for _, tpl := range tpls {
		switch tpl.Name {
		case "human-m":
			humanM = tpl
		case "wheat-s":
			wheatS = tpl
		}
	}
	victim := JobSpec{
		Tenant: "acme", Name: humanM.Name, Libs: humanM.Libs, Pipeline: humanM.Pipeline,
		Ranks: 8, Seed: humanM.Seed, Priority: 0,
	}
	// The preemptor arrives mid-run and needs the whole cluster.
	preemptor := JobSpec{
		Tenant: "bio", Name: wheatS.Name, Libs: wheatS.Libs, Pipeline: wheatS.Pipeline,
		Ranks: 8, Seed: wheatS.Seed, Priority: 5, Arrival: 2 * time.Millisecond,
	}
	cfg := Config{Ranks: 8, RanksPerNode: 8, Seed: 3, DefaultQuota: 8, CkptRoot: t.TempDir()}
	s, err := New(cfg, &PipelineRunner{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Run([]JobSpec{victim, preemptor})
	if err != nil {
		t.Fatal(err)
	}
	if out.Report.Preemptions != 1 {
		t.Fatalf("preemptions = %d, want 1", out.Report.Preemptions)
	}
	if out.Jobs[0].Preemptions != 1 || out.Jobs[0].Attempts != 2 {
		t.Fatalf("victim preempted %d times over %d attempts, want 1 over 2",
			out.Jobs[0].Preemptions, out.Jobs[0].Attempts)
	}
	for i, jr := range out.Jobs {
		if jr.State != StateCompleted {
			t.Fatalf("job %d state %q: %s", i, jr.State, jr.Reason)
		}
	}
	solo := soloRun(t, victim, 8, 8)
	if !verify.EqualSets(verify.CanonicalSet(out.Jobs[0].Seqs), verify.CanonicalSet(solo)) {
		t.Fatal("preempted+resumed job's assembly differs from its solo run")
	}
}

// templateSpec stamps a job from the named default template.
func templateSpec(t *testing.T, tpls []Template, name, tenant string) JobSpec {
	t.Helper()
	for _, tpl := range tpls {
		if tpl.Name == name {
			return JobSpec{
				Tenant: tenant, Name: name, Libs: tpl.Libs, Pipeline: tpl.Pipeline,
				Ranks: tpl.Ranks, Seed: tpl.Seed,
			}
		}
	}
	t.Fatalf("no template %q", name)
	return JobSpec{}
}

// TestAttemptBilledAsMeasured pins what the real runner reports of an
// attempt: the team's clock and nothing else. A clean attempt lasts the
// report's virtual time, with one mark per stage up to it; a crash that
// trips fails the attempt at the trip clock in the stage the pipeline
// names, and the requeued attempt loads exactly what the manifest holds;
// a crash whose countdown outlives its stage is a job that completes.
// (The fourth case, a damaged checkpoint healed by the requeued attempt,
// is TestDiskFaultJobHealsInService.)
func TestAttemptBilledAsMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("real-pipeline runner test")
	}
	tpls, err := DefaultTemplates(20151115, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := templateSpec(t, tpls, "human-s", "acme")
	stages := pipeline.StageNames(spec.Pipeline)
	runner := &PipelineRunner{}
	attempt := func(dir string, resume bool, inj xrt.Inject) RunOutcome {
		return runner.Run(spec, Attempt{
			Attempt: 1, Ranks: spec.Ranks, RanksPerNode: 8, CkptDir: dir, Resume: resume, Inject: inj,
		})
	}
	// One mark per stage, in order, strictly increasing, the last at the
	// attempt's end.
	checkMarks := func(out RunOutcome) {
		t.Helper()
		if out.Failed || out.Fatal {
			t.Fatalf("attempt failed: %+v", out)
		}
		if want := time.Duration(out.Metrics.VirtualNs); out.Virtual != want || out.Measured != want {
			t.Fatalf("Virtual %v, Measured %v: want the report's virtual time %v", out.Virtual, out.Measured, want)
		}
		var prev time.Duration
		for i, m := range out.Stages {
			if i >= len(stages) || m.Stage != stages[i] || m.End <= prev {
				t.Fatalf("marks %v: want one per stage of %v, strictly increasing", out.Stages, stages)
			}
			prev = m.End
		}
		if len(out.Stages) != len(stages) || prev != out.Virtual {
			t.Fatalf("marks %v: want %d ending at %v", out.Stages, len(stages), out.Virtual)
		}
	}

	t.Run("clean", func(t *testing.T) {
		checkMarks(attempt(t.TempDir(), false, xrt.Inject{}))
	})

	t.Run("crash-trips", func(t *testing.T) {
		// Fault seed 50 counts down one charge: it fits any stage.
		inj := xrt.Inject{FaultSeed: 50, FailStage: "contig-generation", PerturbSeed: 5}
		dir := t.TempDir()
		out := attempt(dir, false, inj)
		if !out.Failed || out.Fatal || out.FailedStage != inj.FailStage {
			t.Fatalf("armed attempt: %+v, want a retryable failure in %s", out, inj.FailStage)
		}
		// The same run on a team of our own: the attempt lasted until its trip.
		team := xrt.NewTeam(xrt.Config{Ranks: spec.Ranks, RanksPerNode: 8, Seed: spec.Seed, Inject: inj})
		pcfg := spec.Pipeline
		pcfg.CkptDir = t.TempDir()
		if _, err := pipeline.Run(team, spec.Libs, pcfg); err == nil || team.TripVirtual() <= 0 {
			t.Fatalf("solo armed run: err %v, trip clock %v", err, team.TripVirtual())
		}
		if out.Virtual != team.TripVirtual() || out.Measured != out.Virtual {
			t.Fatalf("Virtual %v, Measured %v: want the trip clock %v", out.Virtual, out.Measured, team.TripVirtual())
		}

		b, err := os.ReadFile(filepath.Join(dir, ckpt.ManifestName))
		if err != nil {
			t.Fatal(err)
		}
		man, err := ckpt.ParseManifest(b)
		if err != nil {
			t.Fatal(err)
		}
		var held []string
		for _, e := range man.Stages {
			held = append(held, e.Name)
		}
		if want := []string{"kmer-analysis"}; !slices.Equal(held, want) {
			t.Fatalf("manifest after the crash holds %v, want %v", held, want)
		}
		resumed := attempt(dir, true, inj.Disarmed())
		checkMarks(resumed)
		var loaded []string
		for _, st := range resumed.Metrics.Stages {
			if of, ok := strings.CutPrefix(st.Name, "checkpoint-load:"); ok {
				loaded = append(loaded, of)
			}
		}
		if !slices.Equal(loaded, held) {
			t.Fatalf("resumed attempt loaded %v, manifest held %v", loaded, held)
		}
		if !verify.EqualSets(verify.CanonicalSet(resumed.Seqs), verify.CanonicalSet(soloRun(t, spec, spec.Ranks, 8))) {
			t.Fatal("resumed attempt's assembly differs from the solo run")
		}
	})

	t.Run("countdown-outlives-stage", func(t *testing.T) {
		// Fault seed 99 counts down 256 charges; no rank makes that many
		// reading this input.
		armed := spec
		armed.Inject = xrt.Inject{FaultSeed: 99, FailStage: "io"}
		s, err := New(Config{Ranks: 8, DefaultQuota: 8, CkptRoot: t.TempDir()}, runner)
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Run([]JobSpec{armed})
		if err != nil {
			t.Fatal(err)
		}
		if jr := out.Jobs[0]; jr.State != StateCompleted || jr.Requeues != 0 || jr.Attempts != 1 {
			t.Fatalf("job %s after %d attempts, %d requeues (%s): want completed in one", jr.State, jr.Attempts, jr.Requeues, jr.Reason)
		}
	})
}

// TestRealServiceReportDeterminism is the determinism gate on the real
// runner: a dozen jobs with every failure injection armed somewhere — a
// crash, a retry budget that exhausts, both on one job, a damaged
// checkpoint — and a perturb seed on each, through a cluster small enough
// to queue, preempt and rescale them. Every duration the scheduler acts on
// is a team's clock, so two passes must give byte-equal reports (at any
// GOMAXPROCS: CI runs this under -cpu 1,4).
func TestRealServiceReportDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("real-pipeline service test")
	}
	tpls, err := DefaultTemplates(20151115, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	harsh := xrt.Inject{ChaosSeed: 11, DropRate: 0.5, RetryBudget: 1}
	crash := xrt.Inject{FaultSeed: 50, FailStage: "contig-generation"}
	both := harsh
	both.FaultSeed, both.FailStage = 346, "kmer-analysis"
	arm := map[int]xrt.Inject{
		0: crash,
		1: harsh,
		3: both,
		4: {FaultSeed: 7, FailStage: "scaffolding", DiskFaultSeed: 21, DiskFailStage: "contig-generation"},
		6: {ChaosSeed: 5, DropRate: 0.1, RetryBudget: 16},
		9: {FaultSeed: 99, FailStage: "io"}, // never trips
	}
	var specs []JobSpec
	for i := 0; i < 12; i++ {
		spec := templateSpec(t, tpls, tpls[i%len(tpls)].Name, TenantNames(3)[i%3])
		spec.Arrival = time.Duration(i) * 400 * time.Microsecond
		spec.Priority = i % 3
		spec.Inject = arm[i]
		spec.PerturbSeed = int64(2*i + 1)
		specs = append(specs, spec)
	}
	pass := func() (*Report, []byte) {
		s, err := New(Config{Ranks: 16, RanksPerNode: 8, Seed: 3, DefaultQuota: 12, CkptRoot: t.TempDir()}, &PipelineRunner{})
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Run(specs)
		if err != nil {
			t.Fatal(err)
		}
		for _, jr := range out.Jobs {
			if jr.State != StateCompleted {
				t.Fatalf("job %d (%s) %s: %s", jr.ID, jr.Name, jr.State, jr.Reason)
			}
		}
		b, err := out.Report.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return out.Report, b
	}
	rep, b1 := pass()
	if rep.Requeues < 4 {
		t.Fatalf("%d requeues: want the four tripping injections to have fired", rep.Requeues)
	}
	if _, b2 := pass(); !bytes.Equal(b1, b2) {
		t.Fatalf("real-runner service report differs between two passes:\n--- pass 1\n%s\n--- pass 2\n%s", b1, b2)
	}
}
