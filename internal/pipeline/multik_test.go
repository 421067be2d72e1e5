package pipeline

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hipmer/internal/verify"
	"hipmer/internal/xrt"
)

// metaLibs builds a small deterministic metagenome with its per-species
// references for the multi-k tests.
func metaLibs(seed int64) ([]verify.Species, []Library) {
	return SimulatedMetagenomeRefs(seed, 24000, 8, 4000)
}

func multiKCfg() Config {
	return Config{KmerLens: []int{21, 33, 55}, MinCount: 2, ContigsOnly: true}
}

// TestMultiKStageNames: KmerLens replaces the single-k pair with the
// five round stages per k, in order, and fault targeting accepts them.
func TestMultiKStageNames(t *testing.T) {
	names := StageNames(multiKCfg())
	want := []string{"io"}
	for _, k := range []int{21, 33, 55} {
		want = append(want,
			fmt.Sprintf("kmer-analysis-k%d", k),
			fmt.Sprintf("contig-generation-k%d", k),
			fmt.Sprintf("tip-clip-k%d", k),
			fmt.Sprintf("bubble-pop-k%d", k),
			fmt.Sprintf("pseudo-merge-k%d", k),
		)
	}
	if len(names) != len(want) {
		t.Fatalf("StageNames = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("StageNames[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

// TestMultiKSmoke: the iterative-k loop assembles the metagenome end to
// end, every round stage reports a timing, the later rounds ingest
// pseudo-reads, and the abundance-aware oracle reports no cross-species
// join.
func TestMultiKSmoke(t *testing.T) {
	sp, libs := metaLibs(31)
	res, err := Run(ckTeam(), libs, multiKCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FinalSeqs) == 0 {
		t.Fatal("no output sequences")
	}
	for _, name := range StageNames(multiKCfg()) {
		if res.Metrics.Stage(name) == nil {
			t.Errorf("stage %s reported no timing", name)
		}
	}
	// Rounds after the first must have ingested the carried contigs.
	st := res.Metrics.Stage("kmer-analysis-k33")
	if st == nil || st.Counters["pseudo_reads"] <= 0 {
		t.Fatalf("kmer-analysis-k33 ingested no pseudo-reads: %+v", st)
	}
	mrg := res.Metrics.Stage("pseudo-merge-k55")
	if mrg == nil || mrg.Counters["pseudo_carried"] <= 0 {
		t.Fatalf("pseudo-merge-k55 carried nothing: %+v", mrg)
	}
	mrep := verify.CheckMeta(res.FinalSeqs, sp, verify.Options{K: 21})
	if mrep.CrossJoins > 0 {
		t.Fatalf("abundance-aware oracle found misassemblies: %s", mrep)
	}
	// Every k-mer the assembly emits must be read-supported at the
	// smallest k (the multi-k spectrum-containment contract).
	if res.Verify != nil && res.Verify.MissingKmers > 0 {
		t.Fatalf("spectrum containment violated: %s", res.Verify)
	}
}

// TestMultiKRankInvariance: the canonical multi-k assembly is invariant
// across rank counts.
func TestMultiKRankInvariance(t *testing.T) {
	_, libs := metaLibs(32)
	var base map[string]int
	for _, p := range []int{1, 2, 4} {
		res, err := Run(xrt.NewTeam(xrt.Config{Ranks: p, RanksPerNode: 2, Seed: 11}),
			libs, multiKCfg())
		if err != nil {
			t.Fatalf("ranks=%d: %v", p, err)
		}
		set := verify.CanonicalSet(res.FinalSeqs)
		if base == nil {
			base = set
		} else if !verify.EqualSets(base, set) {
			t.Fatalf("ranks=%d: assembly differs: %s", p, verify.DiffSets(base, set))
		}
	}
}

// TestMultiKPerturbChaosInvariance: bit-identical output across 4
// schedule-perturbation seeds and 4 message-chaos seeds.
func TestMultiKPerturbChaosInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-k determinism battery; run without -short (make verify)")
	}
	_, libs := metaLibs(33)
	base, err := Run(ckTeam(), libs, multiKCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3, 4} {
		res, err := Run(armedTeam(xrt.Inject{PerturbSeed: seed}), libs, multiKCfg())
		if err != nil {
			t.Fatalf("perturb=%d: %v", seed, err)
		}
		if !equalSeqSlices(base.FinalSeqs, res.FinalSeqs) {
			t.Fatalf("perturb=%d: assembly not bit-identical", seed)
		}

		res, err = Run(armedTeam(xrt.Inject{ChaosSeed: seed}), libs, multiKCfg())
		if err != nil {
			t.Fatalf("chaos=%d: %v", seed, err)
		}
		if !equalSeqSlices(base.FinalSeqs, res.FinalSeqs) {
			t.Fatalf("chaos=%d: assembly not bit-identical", seed)
		}
	}
}

func equalSeqSlices(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if string(a[i]) != string(b[i]) {
			return false
		}
	}
	return true
}

// TestMultiKCrashResume: a crash injected into each new stage kind
// (tip-clip, bubble-pop, pseudo-merge), followed by a resume, yields
// the uninterrupted assembly. Fault countdowns may outlive a short
// stage; the test requires at least one actual crash across the seed
// ladder per stage and checks the resume either way.
func TestMultiKCrashResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-k determinism battery; run without -short (make verify)")
	}
	_, libs := metaLibs(34)
	base, err := Run(ckTeam(), libs, multiKCfg())
	if err != nil {
		t.Fatal(err)
	}
	baseSet := verify.CanonicalSet(base.FinalSeqs)

	for _, stage := range []string{"tip-clip-k33", "bubble-pop-k33", "pseudo-merge-k33"} {
		t.Run(stage, func(t *testing.T) {
			crashes := 0
			// Seeds with countdowns of 1–3 charge events (and different
			// victim ranks), so the crash lands inside even the short
			// cleaning stages.
			for _, seed := range []int64{50, 191, 346, 530} {
				dir := t.TempDir()
				cfg := multiKCfg()
				cfg.CkptDir = dir
				_, err := Run(armedTeam(xrt.Inject{FaultSeed: seed, FailStage: stage}), libs, cfg)
				var sf *StageFailedError
				if errors.As(err, &sf) {
					if sf.Stage != stage && !strings.HasPrefix(sf.Stage, stage) {
						t.Fatalf("crash reported in %q, want %q", sf.Stage, stage)
					}
					crashes++
				} else if err != nil {
					t.Fatalf("seed=%d: unexpected error %v", seed, err)
				}

				rcfg := multiKCfg()
				rcfg.CkptDir = dir
				rcfg.Resume = true
				res, err := Run(ckTeam(), libs, rcfg)
				if err != nil {
					t.Fatalf("seed=%d: resume failed: %v", seed, err)
				}
				if !verify.EqualSets(baseSet, verify.CanonicalSet(res.FinalSeqs)) {
					t.Fatalf("seed=%d: resume after crash in %s diverged", seed, stage)
				}
			}
			if crashes == 0 {
				t.Fatalf("no fault seed crashed inside %s; pick denser seeds", stage)
			}
		})
	}
}

// TestMultiKResumeSkipsRounds: an uninterrupted checkpointed run, then a
// full resume: every round stage rehydrates (checkpoint-load spans with
// bytes) and the assembly matches.
func TestMultiKResumeSkipsRounds(t *testing.T) {
	_, libs := metaLibs(35)
	cfg := multiKCfg()
	cfg.CkptDir = t.TempDir()
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
		t.Fatal("resumed multi-k assembly differs")
	}
	for _, name := range []string{"tip-clip-k21", "bubble-pop-k33", "pseudo-merge-k55"} {
		assertLoadSpan(t, res.Metrics, "checkpoint-load:"+name)
	}
}
