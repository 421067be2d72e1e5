package kanalysis

import (
	"maps"
	"math"
	"slices"
	"testing"

	"hipmer/internal/fastq"
	"hipmer/internal/genome"
	"hipmer/internal/kmer"
	"hipmer/internal/xrt"
)

// sampleReads is the input of the heavy-hitter sample tests: simulated
// pairs of a wheat-like or a human-like genome, with an N and a lower-case
// stretch.
func sampleReads(gen func(*xrt.Prng, int) []byte, seed int64, n int, cov float64) []fastq.Record {
	rng := xrt.NewPrng(seed)
	recs, _ := genome.SimulatePairs(rng, gen(rng, n), genome.SimOptions{
		Coverage: cov,
		Lib:      genome.Library{Name: "s", ReadLen: 100, InsertMean: 280, InsertSD: 15},
		Err:      genome.DefaultErrorModel(),
	})
	recs[0].Seq[40] = 'N'
	for i := 10; i < 30; i++ {
		recs[1].Seq[i] |= 0x20
	}
	return recs
}

// TestBloomSizedFromOwnerWindows: every owner's Bloom filters are built
// for the windows its minimizer bins carry, which are exactly the windows
// its screen offers them — every window of the reads and pseudo-reads but
// the heavy hitters', at the owner of its k-mer — so together they hold at
// least the bits an optimal filter for those windows needs at bloomFP. No
// filter runs past its design load, and the single-occurrence k-mers a
// false positive lets in, PeakEntries − Kept (pseudo-read weights and
// heavy-hitter counts clear MinCount), stay within bloomFP of the first
// sightings: at 1, 4 and 32 ranks, with heavy hitters splitting runs or
// not.
func TestBloomSizedFromOwnerWindows(t *testing.T) {
	const k = 33
	recs := sampleReads(genome.HumanLike, 21, 30000, 10)
	var pseudoSeqs [][]byte
	for i := 0; i < len(recs); i += 41 {
		pseudoSeqs = append(pseudoSeqs, recs[i].Seq)
	}
	for _, p := range []int{1, 4, 32} {
		for _, heavy := range []bool{false, true} {
			pseudo := make([][]PseudoRead, p)
			for i, s := range pseudoSeqs {
				pseudo[i%p] = append(pseudo[i%p], PseudoRead{Seq: s, Weight: 3})
			}
			cfg := xrt.Config{Ranks: p, RanksPerNode: 4}
			opt := Options{K: k, HeavyHitters: heavy, HHMinCount: 16, PseudoByRank: pseudo}
			team := xrt.NewTeam(cfg)
			team.BeginSpan("kmer-analysis")
			res := Run(team, splitReads(recs, p), opt)
			counters := team.EndSpan().Counters
			if heavy && res.HeavyHitters == 0 {
				t.Fatalf("%d ranks: no heavy hitter split a run", p)
			}

			isHeavy := make(map[kmer.Kmer]bool)
			for _, km := range heavyKeys(xrt.NewTeam(cfg), splitReads(recs, p), opt.withDefaults(), &Result{}) {
				isHeavy[km] = true
			}
			offered := make([]int64, p)
			offer := func(seq []byte) {
				kmer.ForEachCanonical(seq, k, func(_ int, canon kmer.Kmer, _ bool) {
					if !isHeavy[canon] {
						offered[res.Table.Owner(canon)]++
					}
				})
			}
			for _, rec := range recs {
				offer(rec.Seq)
			}
			for _, s := range pseudoSeqs {
				offer(s)
			}
			wins := ownerWindows(res.BinWeights, BinOwners(res.BinWeights, p), p)
			if !slices.Equal(wins, offered) {
				t.Fatalf("%d ranks, heavy hitters %v: filters sized for %v windows, the screens offer %v", p, heavy, wins, offered)
			}
			if got := counters["owner_windows_max"]; got != slices.Max(offered) {
				t.Errorf("%d ranks, heavy hitters %v: the busiest screen offered %d windows, want %d", p, heavy, got, slices.Max(offered))
			}
			stripes := res.Table.Stripes()
			blooms := newBlooms(wins, stripes)
			for o := range p {
				var bits uint64
				for _, f := range blooms[o*stripes : (o+1)*stripes] {
					bits += f.Bits()
				}
				if need := float64(offered[o]) * -math.Log(bloomFP) / (math.Ln2 * math.Ln2); float64(bits) < need {
					t.Errorf("%d ranks, heavy hitters %v: owner %d's filters have %d bits for %d windows, want ≥ %.0f",
						p, heavy, o, bits, offered[o], need)
				}
			}

			admitted, firsts := res.PeakEntries-res.Kept, counters["first_sightings"]
			if float64(admitted) > bloomFP*float64(firsts) {
				t.Errorf("%d ranks, heavy hitters %v: %d singletons admitted by false positives, %d first sightings",
					p, heavy, admitted, firsts)
			}
			t.Logf("%d ranks, heavy hitters %v: %d singletons admitted, %d first sightings", p, heavy, admitted, firsts)
		}
	}
}

// TestSampleIgnoresRankCount: which reads the heavy-hitter pass samples is
// a function of their content, not of how they are dealt. With θ above the
// number of distinct sampled k-mers the summaries are exact, so the merged
// counts are the sample's own and must be equal at 1, 4 and 32 ranks; and
// the sample is about one read in sampleRate, mates drawn independently.
func TestSampleIgnoresRankCount(t *testing.T) {
	const k = 31
	recs := sampleReads(genome.HumanLike, 22, 20000, 10)
	var first map[kmer.Kmer]int64
	for _, p := range []int{1, 4, 32} {
		merged := sketchPass(xrt.NewTeam(xrt.Config{Ranks: p, RanksPerNode: 4}), splitReads(recs, p),
			Options{K: k, Theta: 1 << 20, HeavyHitters: true}.withDefaults(), &Result{})
		got := merged.Items()
		if first == nil {
			first = got
		} else if !maps.Equal(got, first) {
			t.Errorf("%d ranks: the sample's counts differ from one rank's", p)
		}
	}
	picked, pairs := 0, 0
	for i := 0; i+1 < len(recs); i += 2 {
		a, b := sampled(recs[i]), sampled(recs[i+1])
		picked += btoi(a) + btoi(b)
		pairs += btoi(a && b)
	}
	if n := len(recs); picked < n/sampleRate*8/10 || picked > n/sampleRate*12/10 {
		t.Errorf("%d of %d reads sampled, want about 1 in %d", picked, n, sampleRate)
	}
	if pairs > 2*len(recs)/(2*sampleRate*sampleRate)+5 {
		t.Errorf("%d pairs sampled with both mates: mates are not independent draws", pairs)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestSampleFindsTwiceTheCutoff: on wheat- and human-like reads at 7 ranks,
// every k-mer whose true count over all reads is at least twice the
// heavy-hitter cut-off is heavy when the cut-off is applied to the sample.
// Both inputs hold such k-mers by the hundred.
func TestSampleFindsTwiceTheCutoff(t *testing.T) {
	const k, p = 31, 7
	for _, c := range []struct {
		name string
		recs []fastq.Record
	}{
		{"wheat", sampleReads(genome.WheatLike, 23, 60000, 20)},
		{"human", sampleReads(genome.HumanLike, 24, 100000, 25)},
	} {
		opt := Options{K: k, HeavyHitters: true}.withDefaults()
		keys := heavyKeys(xrt.NewTeam(xrt.Config{Ranks: p, RanksPerNode: 4}), splitReads(c.recs, p), opt, &Result{})
		heavy := make(map[kmer.Kmer]bool, len(keys))
		for _, km := range keys {
			heavy[km] = true
		}
		var sampleWindows int64
		for _, rec := range c.recs {
			if sampled(rec) {
				kmer.ForEach(rec.Seq, k, func(int, kmer.Kmer) { sampleWindows++ })
			}
		}
		cut := max(64, sampleRate*sampleWindows/int64(opt.Theta))
		truth := naiveCounts(c.recs, k)
		big, missed := 0, 0
		for km, n := range truth {
			if int64(n) >= 2*cut {
				big++
				if !heavy[km] {
					missed++
				}
			}
		}
		if big == 0 {
			t.Fatalf("%s: no k-mer occurs %d times: the test checks nothing", c.name, 2*cut)
		}
		if missed > 0 {
			t.Errorf("%s: %d of the %d k-mers occurring at least %d times are not heavy", c.name, missed, big, 2*cut)
		}
		t.Logf("%s: %d heavy hitters, %d k-mers at ≥ %d occurrences", c.name, len(keys), big, 2*cut)
	}
}
