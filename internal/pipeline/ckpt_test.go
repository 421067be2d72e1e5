package pipeline

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"hipmer/internal/ckpt"
	"hipmer/internal/genome"
	"hipmer/internal/metrics"
	"hipmer/internal/verify"
	"hipmer/internal/xrt"
)

// smallLibs builds a small deterministic dataset for checkpoint tests.
func smallLibs(seed int64) []Library {
	rng := xrt.NewPrng(seed)
	g := genome.Random(rng, 12000)
	recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: 25,
		Lib:      genome.Library{Name: "ck", ReadLen: 100, InsertMean: 300, InsertSD: 20},
		Err:      genome.DefaultErrorModel(),
	})
	return []Library{{Name: "ck", Records: recs, InsertHint: 300}}
}

func ckTeam() *xrt.Team { return armedTeam(xrt.Inject{}) }

// armedTeam is ckTeam with injections armed.
func armedTeam(inj xrt.Inject) *xrt.Team {
	return xrt.NewTeam(xrt.Config{Ranks: 4, RanksPerNode: 2, Seed: 11, Inject: inj})
}

// TestCheckpointResumeSkipsStages runs once with checkpointing, then
// resumes in a fresh team: every checkpointable stage must be skipped
// (rehydrated), and the final assembly must be bit-identical as a
// canonical multiset.
func TestCheckpointResumeSkipsStages(t *testing.T) {
	libs := smallLibs(21)
	cfg := Config{K: 21, MinCount: 2, CkptDir: t.TempDir()}

	base, err := Run(ckTeam(), libs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Resume = true
	res, err := Run(ckTeam(), libs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !verify.EqualSets(verify.CanonicalSet(base.FinalSeqs), verify.CanonicalSet(res.FinalSeqs)) {
		t.Fatal("resumed assembly differs from original")
	}
	// Skipped stages produce checkpoint-load spans (with bytes) instead
	// of stage timings.
	if res.Metrics.Stage("scaffolding") != nil {
		t.Fatal("scaffolding recomputed on full resume")
	}
	assertLoadSpan(t, res.Metrics, "checkpoint-load:kmer-analysis")
	assertLoadSpan(t, res.Metrics, "checkpoint-load:gap-closing")
}

func assertLoadSpan(t *testing.T, rep *metrics.Report, path string) {
	t.Helper()
	st := rep.Stage(path)
	if st == nil {
		t.Fatalf("missing %s span in metrics report", path)
	}
	if st.Counters["ckpt_bytes"] <= 0 {
		t.Fatalf("%s span has no ckpt_bytes counter", path)
	}
	if st.Comm.IOBytes <= 0 {
		t.Fatalf("%s span charged no virtual read I/O", path)
	}
}

// TestCrashThenResumeMatchesUninterrupted is the crash-consistency
// contract end to end: inject a deterministic rank crash mid-stage, see
// the typed StageFailedError, resume from the checkpoint in a fresh
// team, and get an assembly bit-identical to the uninterrupted run. The
// two traverse cases put the failure — a crash, then a retry exhaustion
// on a lossy transport — inside contig generation's event loop (at 24
// ranks graph-build is over within the countdown): it must unwind like
// any goroutine phase, every span closed, and, the loop's charge sequence
// being a function of the input, at the same rank and clock every time.
// A resume armed for a stage it rehydrates (resume) must not crash: a
// stage loaded from its checkpoint is never armed (seed 50 counts down a
// single charge, so arming anywhere in the rehydration would fire).
func TestCrashThenResumeMatchesUninterrupted(t *testing.T) {
	libs := smallLibs(22)
	// Fault seeds chosen so the countdown fires inside the stage: the
	// window is 1..256 charge events, and gap-closing on a near-gapless
	// toy assembly charges only a handful per rank, so it needs a seed
	// with a short countdown (seed 7 → 14 charges).
	for _, c := range []struct {
		name, stage string
		ranks       int
		inj         xrt.Inject
		inTraverse  bool
		resume      xrt.Inject
	}{
		{"contig-generation", "contig-generation", 4, xrt.Inject{FaultSeed: 5}, false, xrt.Inject{}},
		{"scaffolding", "scaffolding", 4, xrt.Inject{FaultSeed: 5}, false, xrt.Inject{}},
		{"gap-closing", "gap-closing", 4, xrt.Inject{FaultSeed: 7}, false, xrt.Inject{}},
		{"traverse", "contig-generation", 24, xrt.Inject{FaultSeed: 1}, true, xrt.Inject{}},
		{"traverse-retry-exhaustion", "contig-generation", 24,
			xrt.Inject{ChaosSeed: 1, DropRate: 0.1, RetryBudget: 3}, true, xrt.Inject{}},
		{name: "scaffolding-resume-armed-in-loaded-stage", stage: "scaffolding", ranks: 4,
			inj:    xrt.Inject{FaultSeed: 5},
			resume: xrt.Inject{FaultSeed: 50, FailStage: "contig-generation"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			newTeam := func(inj xrt.Inject) *xrt.Team {
				return xrt.NewTeam(xrt.Config{Ranks: c.ranks, RanksPerNode: c.ranks / 2, Seed: 11, Inject: inj})
			}
			base, err := Run(newTeam(xrt.Inject{}), libs, Config{K: 21, MinCount: 2})
			if err != nil {
				t.Fatal(err)
			}

			if c.inj.FaultSeed != 0 {
				c.inj.FailStage = c.stage
			}
			dir := t.TempDir()
			team := newTeam(c.inj)
			_, err = Run(team, libs, Config{K: 21, MinCount: 2, CkptDir: dir})
			var sf *StageFailedError
			if !errors.As(err, &sf) {
				t.Fatalf("crashed run: err = %v, want *StageFailedError", err)
			}
			if sf.Stage != c.stage {
				t.Fatalf("StageFailedError.Stage = %q, want %q", sf.Stage, c.stage)
			}
			var fe *xrt.FaultError
			var re *xrt.RetryExhaustedError
			if c.inj.FaultSeed != 0 && (!errors.As(err, &fe) || fe.Seed != c.inj.FaultSeed) ||
				c.inj.ChaosSeed != 0 && !errors.As(err, &re) {
				t.Fatalf("StageFailedError does not wrap the injected failure: %v", err)
			}
			if team.OpenSpans() != 0 {
				t.Fatalf("%d spans left open by the failed stage", team.OpenSpans())
			}
			if c.inTraverse {
				spans := map[string]bool{}
				for _, sp := range team.Spans() {
					spans[sp.Path] = true
				}
				if !spans["contig-generation/traverse"] || spans["contig-generation/assign-ids"] {
					t.Fatalf("the failure did not land inside traverse (spans %v)", spans)
				}
				again := newTeam(c.inj)
				_, err = Run(again, libs, Config{K: 21, MinCount: 2, CkptDir: t.TempDir()})
				var sf2 *StageFailedError
				if !errors.As(err, &sf2) || sf2.Rank != sf.Rank ||
					again.TripVirtual() != team.TripVirtual() || team.TripVirtual() <= 0 {
					t.Fatalf("failure at rank %d, %v; a second run: %v at %v",
						sf.Rank, team.TripVirtual(), err, again.TripVirtual())
				}
			}

			res, err := Run(newTeam(c.resume), libs, Config{
				K: 21, MinCount: 2, CkptDir: dir, Resume: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !verify.EqualSets(verify.CanonicalSet(base.FinalSeqs),
				verify.CanonicalSet(res.FinalSeqs)) {
				t.Fatalf("resume after crash in %s diverged from uninterrupted run", c.stage)
			}
			// The crashed stage itself was not checkpointed, so the resume
			// recomputes it; everything before it must have been loaded.
			if res.Metrics.Stage(c.stage) == nil {
				t.Fatalf("stage %s was not recomputed after its crash", c.stage)
			}
			if c.stage != "contig-generation" {
				assertLoadSpan(t, res.Metrics, "checkpoint-load:contig-generation")
			}
		})
	}
}

// TestCheckpointSaveSpans: a checkpointing run reports one
// checkpoint-save span per checkpointable stage, with bytes charged as
// virtual write I/O.
func TestCheckpointSaveSpans(t *testing.T) {
	res, err := Run(ckTeam(), smallLibs(23), Config{K: 21, MinCount: 2, CkptDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"kmer-analysis", "contig-generation", "scaffolding", "gap-closing"} {
		st := res.Metrics.Stage("checkpoint-save:" + name)
		if st == nil {
			t.Fatalf("missing checkpoint-save span for %s", name)
		}
		if st.Counters["ckpt_bytes"] <= 0 || st.Comm.IOWriteBytes <= 0 {
			t.Fatalf("checkpoint-save:%s has no bytes/write charge (counters=%v, io_write=%d)",
				name, st.Counters, st.Comm.IOWriteBytes)
		}
	}
}

// TestResumeRefusesMismatchedConfig: changing an assembly knob between
// checkpoint and resume must be refused via the fingerprint.
func TestResumeRefusesMismatchedConfig(t *testing.T) {
	libs := smallLibs(24)
	dir := t.TempDir()
	if _, err := Run(ckTeam(), libs, Config{K: 21, MinCount: 2, CkptDir: dir}); err != nil {
		t.Fatal(err)
	}
	_, err := Run(ckTeam(), libs, Config{K: 21, MinCount: 3, CkptDir: dir, Resume: true})
	if !errors.Is(err, ckpt.ErrFingerprintMismatch) {
		t.Fatalf("err = %v, want ErrFingerprintMismatch", err)
	}
}

// TestRunConfigValidation: invalid checkpoint/fault configs fail fast.
func TestRunConfigValidation(t *testing.T) {
	libs := smallLibs(25)
	if _, err := Run(ckTeam(), libs, Config{K: 21, Resume: true}); err == nil {
		t.Fatal("Resume without CkptDir accepted")
	}
	_, err := Run(armedTeam(xrt.Inject{FaultSeed: 1, FailStage: "no-such-stage"}), libs, Config{K: 21})
	if err == nil {
		t.Fatal("unknown fault stage accepted")
	}
	_, err = Run(armedTeam(xrt.Inject{DiskFaultSeed: 1, DiskFailStage: "io"}), libs,
		Config{K: 21, CkptDir: t.TempDir()})
	if err == nil {
		t.Fatal("disk fault on io, which writes no segment, accepted")
	}
}

// TestResumedStagesReportFreshSpans: a run that crashes in scaffolding
// and resumes from its checkpoints reaches scaffolding at another clock
// than a fresh run, yet its scaffolding and gap-closing spans — every
// sub-span, per rank, counter — are the fresh run's, field by field.
func TestResumedStagesReportFreshSpans(t *testing.T) {
	_, libs := SimulatedHuman(7, 15000, 20)
	newTeam := func(inj xrt.Inject) *xrt.Team {
		return xrt.NewTeam(xrt.Config{Ranks: 16, RanksPerNode: 4, Seed: 11, Inject: inj})
	}
	late := func(path string) bool {
		for _, stage := range []string{"scaffolding", "gap-closing"} {
			if path == stage || strings.HasPrefix(path, stage+"/") {
				return true
			}
		}
		return false
	}
	cfg := Config{K: 31, MinCount: 3}
	fresh := newTeam(xrt.Inject{})
	if _, err := Run(fresh, libs, cfg); err != nil {
		t.Fatal(err)
	}
	want := spanRecords(fresh, late)
	for seed := int64(11); seed <= 14; seed++ {
		cfg := cfg
		cfg.CkptDir = t.TempDir()
		var sf *StageFailedError
		_, err := Run(newTeam(xrt.Inject{FaultSeed: seed, FailStage: "scaffolding"}), libs, cfg)
		if !errors.As(err, &sf) || sf.Stage != "scaffolding" {
			t.Fatalf("seed %d: err = %v, want a crash in scaffolding", seed, err)
		}
		cfg.Resume = true
		resumed := newTeam(xrt.Inject{})
		if _, err := Run(resumed, libs, cfg); err != nil {
			t.Fatal(err)
		}
		got := spanRecords(resumed, late)
		if len(got) != len(want) {
			t.Fatalf("seed %d: resume recorded %d scaffolding and gap-closing spans, fresh run %d", seed, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("seed %d: resumed span %s differs from the fresh run's", seed, got[i].Path)
			}
		}
	}
}
