package kanalysis

import (
	"slices"
	"testing"

	"hipmer/internal/genome"
	"hipmer/internal/kmer"
	"hipmer/internal/xrt"
)

// TestBinOwnersLPT: every bin goes to a rank, the map is a function of the
// weights alone with ties broken by bin and then by rank, no rank carries
// more than the mean plus the heaviest bin, and without weights a table
// places a minimizer by its hash modulo the rank count.
func TestBinOwnersLPT(t *testing.T) {
	if got := BinOwners([]int64{5, 5, 3, 3, 0}, 2); !slices.Equal(got, []int32{0, 1, 0, 1, 0}) {
		t.Errorf("ties: owners %v, want [0 1 0 1 0]", got)
	}
	equal := make([]int64, Bins)
	for i := range equal {
		equal[i] = 7
	}
	for b, o := range BinOwners(equal, 5) {
		if int(o) != b%5 {
			t.Fatalf("equal weights: bin %d on rank %d, want %d", b, o, b%5)
		}
	}

	rng := xrt.NewPrng(3)
	weights := make([]int64, Bins)
	for i := range weights {
		switch i % 4 {
		case 0: // an empty bin
		case 1:
			weights[i] = int64(rng.Intn(100))
		default:
			weights[i] = int64(rng.Intn(1 << rng.Intn(16)))
		}
	}
	weights[17] = 50_000 // a bin heavier than a mean rank at 32 ranks
	for _, p := range []int{1, 3, 32, 96} {
		owner := BinOwners(weights, p)
		if !slices.Equal(owner, BinOwners(slices.Clone(weights), p)) {
			t.Fatalf("%d ranks: two maps of the same weights differ", p)
		}
		load := make([]int64, p)
		var total int64
		for b, o := range owner {
			if o < 0 || int(o) >= p {
				t.Fatalf("%d ranks: bin %d on rank %d", p, b, o)
			}
			load[o] += weights[b]
			total += weights[b]
		}
		if max, bound := slices.Max(load), total/int64(p)+slices.Max(weights); max > bound {
			t.Errorf("%d ranks: busiest rank carries %d, mean plus heaviest bin is %d", p, max, bound)
		}
	}

	const k, p = 21, 7
	m := kmer.ClampMinimizerLen(k, 0)
	team := xrt.NewTeam(xrt.Config{Ranks: p})
	table := NewBinnedTable(team, 0, k, m, nil)
	_, recs := simReads(t, 2, 2000, 1, genome.ErrorModel{})
	kmer.ForEachCanonical(recs[0].Seq, k, func(_ int, canon kmer.Kmer, _ bool) {
		if o, want := table.Owner(canon), int(kmer.MinimizerHash(canon.Minimizer(k, m))%p); o != want {
			t.Fatalf("nil weights place %s on %d, hash placement on %d", canon.String(k), o, want)
		}
	})
}

// TestBinWeightsRankInvariant: without heavy hitters, which windows a
// record carries is a function of the read alone, so the reduced weights
// are equal at every rank count and sum to the windows shipped.
func TestBinWeightsRankInvariant(t *testing.T) {
	const k = 31
	_, recs := simReads(t, 8, 20000, 10, genome.DefaultErrorModel())
	var first []int64
	for _, p := range []int{4, 8, 32} {
		res := Run(xrt.NewTeam(xrt.Config{Ranks: p, RanksPerNode: 4}), splitReads(recs, p), Options{K: k})
		if len(res.BinWeights) != Bins {
			t.Fatalf("%d ranks: %d bin weights, want %d", p, len(res.BinWeights), Bins)
		}
		var sum int64
		for _, w := range res.BinWeights {
			sum += w
		}
		if windows := res.SuperKmerBases - int64(k-1)*res.SuperKmers; sum != windows {
			t.Fatalf("%d ranks: the weights sum to %d, the records carry %d windows", p, sum, windows)
		}
		if first == nil {
			first = res.BinWeights
		} else if !slices.Equal(res.BinWeights, first) {
			t.Errorf("%d ranks: the bin weights differ from 4 ranks'", p)
		}
	}
}
