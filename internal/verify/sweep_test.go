// Schedule-perturbation sweeps: the end-to-end assembly must be
// bit-identical under every deterministic schedule perturbation. A
// divergence here means some stage let goroutine interleaving leak into
// its output — exactly the class of bug the claim/link traversal and
// the DHT phase discipline are designed to exclude.
package verify_test

import (
	"bytes"
	"testing"

	"hipmer/internal/pipeline"
	"hipmer/internal/verify"
	"hipmer/internal/xrt"
)

// runPerturbed assembles libs end-to-end under one perturbation seed.
func runPerturbed(t *testing.T, libs []pipeline.Library, seed int64, vopt *verify.Options) *pipeline.Result {
	t.Helper()
	team := xrt.NewTeam(xrt.Config{Ranks: 8, RanksPerNode: 4, Seed: 3, Inject: xrt.Inject{PerturbSeed: seed}})
	res, err := pipeline.Run(team, libs, pipeline.Config{
		K: 21, MinCount: 3, Verify: vopt,
	})
	if err != nil {
		t.Fatalf("pipeline under perturb seed %d: %v", seed, err)
	}
	return res
}

// TestPerturbSeedSweepBitIdenticalAssembly sweeps 8 distinct
// perturbation seeds over the full pipeline (k-mer analysis, contigs,
// scaffolding, gap closing) and asserts every final sequence is
// byte-for-byte identical to the unperturbed run's. The unperturbed run
// also passes the assembly oracle against the simulated reference.
func TestPerturbSeedSweepBitIdenticalAssembly(t *testing.T) {
	ref, libs := pipeline.SimulatedHuman(7, 12000, 25)
	base := runPerturbed(t, libs, 0, &verify.Options{Ref: ref})
	if len(base.FinalSeqs) == 0 {
		t.Fatal("baseline assembled nothing")
	}
	if !base.Verify.OK() {
		t.Fatalf("baseline fails the oracle: %s", base.Verify)
	}
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 0x5eed}
	for _, seed := range seeds {
		res := runPerturbed(t, libs, seed, nil)
		if len(res.FinalSeqs) != len(base.FinalSeqs) {
			t.Fatalf("perturb seed %d: %d sequences, baseline %d",
				seed, len(res.FinalSeqs), len(base.FinalSeqs))
		}
		for i := range res.FinalSeqs {
			if !bytes.Equal(res.FinalSeqs[i], base.FinalSeqs[i]) {
				t.Fatalf("perturb seed %d: sequence %d differs from baseline (len %d vs %d)",
					seed, i, len(res.FinalSeqs[i]), len(base.FinalSeqs[i]))
			}
		}
	}
}

// TestPerturbContigSetAcrossRankCounts combines both metamorphic axes:
// for each rank count, a perturbed and an unperturbed run must agree,
// and all rank counts must produce one canonical contig set.
func TestPerturbContigSetAcrossRankCounts(t *testing.T) {
	_, libs := pipeline.SimulatedHuman(8, 12000, 25)
	var base map[string]int
	for _, ranks := range []int{1, 4, 16} {
		for _, seed := range []int64{0, 9} {
			team := xrt.NewTeam(xrt.Config{
				Ranks: ranks, RanksPerNode: 4,
				Inject: xrt.Inject{PerturbSeed: seed},
			})
			res, err := pipeline.Run(team, libs, pipeline.Config{K: 21, MinCount: 3, ContigsOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			set := verify.CanonicalSet(res.FinalSeqs)
			if base == nil {
				base = set
				continue
			}
			if !verify.EqualSets(base, set) {
				t.Fatalf("ranks %d perturb %d: contig set diverged: %s",
					ranks, seed, verify.DiffSets(base, set))
			}
		}
	}
}
