package contig

import (
	"testing"

	"hipmer/internal/genome"
	"hipmer/internal/kmer"
	"hipmer/internal/xrt"
)

// TestTraversalPerturbedSchedules targets the claim/abort protocol: many
// ranks walk a graph with fork points (so walks collide and the
// wait-or-abort arbitration actually fires) under a sweep of
// schedule-perturbation seeds. Every schedule must produce the same
// canonical contig set as the unperturbed run, each contig must account
// for exactly len-k+1 UU k-mers, and every UU k-mer must land in exactly
// one contig. Run with -race to also catch unsynchronized access on the
// perturbed interleavings.
func TestTraversalPerturbedSchedules(t *testing.T) {
	const k = 21
	rng := xrt.NewPrng(31)
	// shared segments create forks, so several walks meet in the middle
	shared := genome.Random(rng, 300)
	g1 := append(append(genome.Random(rng, 2000), shared...), genome.Random(rng, 2000)...)
	g2 := append(append(genome.Random(rng, 2000), shared...), genome.Random(rng, 2000)...)

	run := func(perturbSeed int64) (map[string]bool, int, int) {
		team := xrt.NewTeam(xrt.Config{
			Ranks:        24,
			RanksPerNode: 6,
			Inject:       xrt.Inject{PerturbSeed: perturbSeed},
		})
		kt := tableFromSeqs(team, [][]byte{g1, g2}, k)
		res := Run(team, kt, Options{K: k})
		set := make(map[string]bool)
		covered := 0
		seen := make(map[kmer.Kmer]int)
		for _, c := range res.All() {
			set[canonSeq(c.Seq)] = true
			covered += len(c.Seq) - k + 1
			kmer.ForEach(c.Seq, k, func(_ int, km kmer.Kmer) {
				canon, _ := km.Canonical(k)
				seen[canon]++
			})
		}
		uu := 0
		res.Graph.RangeAll(func(km kmer.Kmer, _ Node) bool {
			uu++
			if seen[km] != 1 {
				t.Errorf("perturb seed %d: UU k-mer in %d contigs, want 1", perturbSeed, seen[km])
				return false
			}
			return true
		})
		return set, covered, uu
	}

	baseSet, baseCov, baseUU := run(0) // unperturbed baseline
	if baseCov != baseUU {
		t.Fatalf("baseline: contigs account for %d k-mers, graph has %d", baseCov, baseUU)
	}
	if len(baseSet) < 3 {
		t.Fatalf("baseline: %d contigs, want >= 3 (fork should split)", len(baseSet))
	}
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		set, cov, uu := run(seed)
		if cov != uu {
			t.Fatalf("perturb seed %d: contigs account for %d k-mers, graph has %d", seed, cov, uu)
		}
		if len(set) != len(baseSet) {
			t.Fatalf("perturb seed %d: %d contigs, baseline %d", seed, len(set), len(baseSet))
		}
		for s := range baseSet {
			if !set[s] {
				t.Fatalf("perturb seed %d: contig set diverged from baseline", seed)
			}
		}
	}
}
