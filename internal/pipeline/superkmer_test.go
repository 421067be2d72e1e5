package pipeline

import (
	"testing"

	"hipmer/internal/genome"
	"hipmer/internal/xrt"
)

// TestSuperKmerBitIdenticalAssembly: the minimizer super-k-mer transport
// must change only the k-mer-analysis communication pattern, never the
// assembly — the final sequences are bit-identical to the per-k-mer
// path's, across rank counts and with chaos armed.
func TestSuperKmerBitIdenticalAssembly(t *testing.T) {
	rng := xrt.NewPrng(9)
	g := genome.Random(rng, 20000)
	recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: 25,
		Lib:      genome.Library{Name: "sk", ReadLen: 100, InsertMean: 300, InsertSD: 20},
		Err:      genome.DefaultErrorModel(),
	})
	run := func(ranks int, disable bool, chaosSeed int64) string {
		cfg := xrt.Config{Ranks: ranks, RanksPerNode: 4}
		if chaosSeed != 0 {
			cfg.Inject = xrt.Inject{ChaosSeed: chaosSeed, DropRate: 0.05, RetryBudget: 16}
		}
		team := xrt.NewTeam(cfg)
		res, err := Run(team, []Library{{Name: "sk", Records: recs, InsertHint: 300}},
			Config{K: 21, MinCount: 2, DisableSuperKmers: disable})
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, s := range res.FinalSeqs {
			out += string(s) + "|"
		}
		return out
	}
	for _, ranks := range []int{4, 9} {
		base := run(ranks, true, 0)
		if got := run(ranks, false, 0); got != base {
			t.Fatalf("ranks=%d: super-k-mer assembly differs from per-k-mer assembly", ranks)
		}
		if got := run(ranks, false, 42); got != base {
			t.Fatalf("ranks=%d: super-k-mer assembly under chaos differs from fault-free per-k-mer", ranks)
		}
	}
}
